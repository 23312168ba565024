"""The NodeFinder crawler driving the simulated world.

One :class:`NodeFinderInstance` reproduces the modified-Geth behaviour of §4
as discrete events on the shared world clock:

* a **discovery loop**: iterative Kademlia lookups toward random targets,
  querying the ALPHA closest known nodes per round (lookupInterval-paced);
* **dynamic dials** to every address a lookup returns that we have not
  connected to recently;
* **static dials**: every successfully-dialed address joins the
  StaticNodes list and is re-dialed every ``static_dial_interval`` (30 min),
  with addresses stale for >24h dropped from the list;
* **incoming connections** accepted from the world (never Too-many-peers);
* the measurement log: per-day counters plus the node database.

The policy in that list — which results are dialed, what joins
StaticNodes, what is due, gated or pruned — is
:class:`~repro.nodefinder.core.CrawlerCore`'s; this module is the IO
around it: lookups against the world, ``world.dial``, the clock ticks,
profiler scopes, per-shard journals and the reshard handoff.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.keccak import keccak256_batch
from repro.discovery.admission import TableAdmission
from repro.discovery.enode import ENode
from repro.discovery.lookup import Lookup
from repro.discovery.routing import K_NEIGHBORS, RoutingTable
from repro.errors import DiscoveryError
from repro.nodefinder.core import CrawlerCore
from repro.nodefinder.database import NodeDB
from repro.nodefinder.defense import DefenseConfig, DefenseStats
from repro.nodefinder.records import CrawlStats, DialResult
from repro.nodefinder.reshard import (
    DynamicShardPlan,
    ReshardController,
    ReshardCoordinator,
    ReshardPolicy,
)
from repro.nodefinder.shard import NodeDBWriter
from repro.resilience.breaker import BreakerState, PeerScoreboard
from repro.simnet.geo import Location
from repro.simnet.node import NodeAddress
from repro.simnet.world import SimWorld
from repro.telemetry import NULL_TELEMETRY, EventJournal, Telemetry
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: discovery ticks pre-drawn, and their targets hashed, per block.  One
#: ``keccak256_batch`` pass is nearly flat in its size — 4.9 ms for 64
#: targets, 5.7 ms for 256, 7.7 ms for 1 024, against 199 us per scalar
#: hash — so 256 hashes a target for 22 us, 89% of the saving an endless
#: block would give, while a crawl that stops after a few ticks wastes at
#: most one block.  A property of the two hash paths: a constant.
TICK_PLAN_BLOCK = 256

#: how long a dynamic dial keeps its target out of the next lookups'
#: dials.  Geth's dialHistoryExpiration is 30s — a node can be re-dialed
#: half a minute after the last attempt, which is how the paper racks up
#: 5.3M dial attempts to 34.7K nodes per day.  Simulating every attempt is
#: wasteful; 30 sim-minutes keeps the discovery:dial ratio shape while
#: cutting event count ~60x (the scale factor is reported alongside
#: Figure 5).  Not ``static_dial_interval``: a crawl that stretches that
#: one must not widen this.
DIAL_HISTORY_EXPIRATION = 30 * 60.0


@dataclass
class NodeFinderConfig:
    """Crawler knobs; paper defaults, with sim-scale pacing.

    The real lookupInterval is 4s; at full fidelity a Geth-like client makes
    ~180-304 discovery attempts per hour.  ``discovery_interval`` defaults
    to 12s of simulated time (300/hour), matching the paper's §5.2 observed
    rate; lower it for denser crawls, raise it for faster simulations.
    """

    discovery_interval: float = 12.0
    static_dial_interval: float = 30 * 60.0
    seed: int = 0
    #: worker shards partitioning the enode keyspace by node-ID prefix;
    #: dials go out in the same order under any N, each routed to the
    #: shard owning the target and folded through one NodeDBWriter, so any
    #: N produces the same NodeDB, stats and defence counters as shards=1
    #: (the shard-conformance suite pins this, defended crawl included)
    shards: int = 1
    #: hostile-load hardening (table admission, subnet breakers, dial
    #: budget — see :mod:`repro.nodefinder.defense`).  None keeps the
    #: crawler byte-for-byte on its historical undefended behaviour.
    defenses: Optional[DefenseConfig] = None
    #: elastic sharding: when set, the plan may split hot shards and merge
    #: cold siblings mid-crawl (scripted schedule or gauge-driven with
    #: hysteresis — see :mod:`repro.nodefinder.reshard`).  None leaves
    #: the plan as it starts.
    reshard: Optional[ReshardPolicy] = None


class TickPlan:
    """One crawler's random stream, drawn a block of ticks ahead.

    The stream is ``node_id = randbytes(64)`` and then, per discovery
    tick, ``target = randbytes(64)`` followed by ``jitter = uniform(0,
    2.0)`` (the tick picks its lookup target, then the clock draws the
    delay to the next tick).  Nothing else reads this generator, so
    drawing :data:`TICK_PLAN_BLOCK` (target, jitter) pairs at once keeps
    every draw at its position in the stream — every value is what a
    draw-as-you-go crawler would see — while the block's targets hash in
    one :func:`keccak256_batch` pass instead of one scalar permutation a
    tick.  The plan is a pure function of (seed, name, ticks consumed).
    """

    def __init__(self, seed: int, name: str) -> None:
        self._rng = random.Random(seed ^ zlib.crc32(name.encode()))
        self.node_id = self._rng.randbytes(64)
        self._targets: deque[tuple[bytes, bytes]] = deque()
        self._jitters: deque[float] = deque()

    def _draw_block(self) -> None:
        rng = self._rng
        targets = []
        for _ in range(TICK_PLAN_BLOCK):
            targets.append(rng.randbytes(64))
            self._jitters.append(rng.uniform(0, 2.0))
        self._targets.extend(zip(targets, keccak256_batch(targets)))

    def next_target(self) -> tuple[bytes, bytes]:
        """The next tick's lookup target and its keccak-256."""
        if not self._targets:
            self._draw_block()
        return self._targets.popleft()

    def next_jitter(self) -> float:
        """The delay jitter that follows the tick just planned."""
        if not self._jitters:
            self._draw_block()
        return self._jitters.popleft()


class NodeFinderInstance:
    """One crawler attached to a SimWorld."""

    def __init__(
        self,
        world: SimWorld,
        config: NodeFinderConfig | None = None,
        name: str = "nodefinder-0",
        location: Location | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        journal_opener: Callable[[str], EventJournal] | None = None,
    ) -> None:
        self.world = world
        self.config = config or NodeFinderConfig()
        self.name = name
        #: the crawler's only randomness: its identity, then every tick's
        #: (lookup target, next-tick jitter), pre-drawn and pre-hashed
        self.tick_plan = TickPlan(self.config.seed, name)
        self.location = location or world.geo.assign()
        self.node_id = self.tick_plan.node_id
        self.db = NodeDB()
        self.stats = CrawlStats()
        #: what the hardening layer absorbed (empty when defenses=None)
        self.defense_stats = DefenseStats()
        defenses = self.config.defenses
        admission: Optional[TableAdmission] = None
        self.scoreboard: Optional[PeerScoreboard] = None
        if defenses is not None:
            admission = TableAdmission(
                ips_per_subnet=defenses.table_ips_per_subnet,
                ips_per_bucket=defenses.table_ips_per_bucket,
                ids_per_ip=defenses.table_ids_per_ip,
                prefix_bits=defenses.subnet_prefix_bits,
                on_reject=self._on_table_reject,
            )
            self.scoreboard = PeerScoreboard(
                failure_threshold=defenses.breaker_failure_threshold,
                cooldown=defenses.breaker_cooldown,
                clock=self._world_now,
                on_transition=self._on_breaker,
                subnet_failure_threshold=defenses.subnet_failure_threshold,
                subnet_cooldown=defenses.subnet_cooldown,
                subnet_prefix_bits=defenses.subnet_prefix_bits,
                on_subnet_transition=self._on_subnet_breaker,
            )
        #: the crawler's own Kademlia routing table (Geth metric) — lookups
        #: pick their alpha starting candidates from here, as Geth does
        self.table = RoutingTable.for_node_id(self.node_id, admission=admission)
        self._started = False
        # -- sharding: partition by node-ID prefix, fold via one writer ------
        shards = max(1, int(self.config.shards))
        self.plan = DynamicShardPlan(shards)
        policy = self.config.reshard
        self.controller: Optional[ReshardController] = (
            ReshardController(policy, self.plan) if policy is not None else None
        )
        #: the crawl's journal: with a ``journal_opener`` every facade of
        #: this crawl writes through it and it places each record in a
        #: segment file; without one the crawl journals wherever
        #: ``telemetry`` does, or not at all
        self.coordinator = ReshardCoordinator(
            self.plan, journal_opener, self._world_now, self.node_id, name
        )
        self.telemetry = telemetry = self.coordinator.facade(telemetry)
        self.writer = NodeDBWriter(self.db, stats=self.stats, telemetry=telemetry)
        #: the §4 policy: StaticNodes, dial history, breaker gate (the one
        #: crawl-wide scoreboard, if any, serves every shard) and the
        #: address book — the discovery pool lookups fill and dials draw on
        self.core: CrawlerCore[NodeAddress] = CrawlerCore(
            self.plan,
            self.config.static_dial_interval,
            DIAL_HISTORY_EXPIRATION,
            [self.scoreboard] * shards,
        )
        #: per-shard facades, positional like ``plan.ranges``: the crawl's
        #: telemetry under each segment's metric label
        self._shard_telemetry = [
            telemetry.for_shard(shard_range.segment) for shard_range in self.plan.ranges
        ]

    # -- defence plumbing -------------------------------------------------------

    def _world_now(self) -> float:
        return self.world.now

    def _on_table_reject(self, node: ENode, reason: str, subnet: Optional[str]) -> None:
        self.defense_stats.note_rejection(reason)
        self.telemetry.record_table_admission(node.node_id, node.ip, reason, subnet)

    def _on_breaker(self, node_id: bytes, old: BreakerState, new: BreakerState) -> None:
        self.telemetry.record_breaker(node_id, old, new)

    def _on_subnet_breaker(
        self, subnet: str, old: BreakerState, new: BreakerState
    ) -> None:
        if new is BreakerState.OPEN:
            self.defense_stats.subnet_breaker_trips += 1
        self.telemetry.record_subnet_breaker(subnet, old, new)

    def defense_snapshot(self) -> DefenseStats:
        """The hardening layer's absorption counters, with live breaker state."""
        if self.scoreboard is not None:
            self.defense_stats.open_subnets = self.scoreboard.open_subnets
        return self.defense_stats

    @property
    def static_nodes(self) -> dict[bytes, float]:
        """The StaticNodes schedule: node id -> next static dial time."""
        return self.core.statics

    # -- lifecycle --------------------------------------------------------------

    def start(self, bootstrap: list[NodeAddress] | None = None) -> None:
        """Join the network: seed bootstrap nodes, start loops, listen."""
        if self._started:
            return
        self._started = True
        clock = self.world.clock
        for address in bootstrap or self.world.bootstrap_addresses():
            self._learn(address)
            # bootstrap nodes are static-dialed like any other node (§4)
            self.core.add_static(address.node_id, clock.now)
        self.world.register_listener(self)
        clock.schedule_every(
            self.config.discovery_interval,
            self._discovery_tick,
            jitter=self.tick_plan.next_jitter,
            label="scanner.discovery_tick",
        )
        clock.schedule_every(
            self.config.static_dial_interval,
            self._static_tick,
            label="scanner.static_tick",
        )
        clock.schedule_every(
            SECONDS_PER_HOUR, self._prune_stale, label="scanner.prune_stale"
        )
        self.plan.publish(self.telemetry)

    @property
    def day(self) -> int:
        return int(self.world.now // SECONDS_PER_DAY)

    # -- discovery -----------------------------------------------------------------

    def _discovery_tick(self) -> None:
        """One node-discovery round: an iterative lookup, then dials of
        what the core selects from its results."""
        _target, target_hash = self.tick_plan.next_target()
        with self.telemetry.profiler.scope("scanner.lookup"):
            results = self._lookup(target_hash)
        self.writer.record_discovery(self.day)
        now = self.world.now
        defenses = self.config.defenses
        # the core filters every candidate first (its filters depend only
        # on state this tick's dials cannot change: each node id appears
        # once per lookup); the dials then go out in lookup order whatever
        # the plan, because a /24's breaker trips on the K-th failure in
        # dial order — dialing shard by shard would make the defended
        # crawl depend on the shard count.
        taken, dropped = self.core.select(
            results,
            self.node_id,
            now,
            # amplification guard: the overflow is shed, not dialed
            budget=defenses.max_dynamic_dials_per_tick if defenses is not None else None,
        )
        if dropped:
            self.defense_stats.budget_dropped_dials += dropped
            self.telemetry.record_budget_drop(dropped)
        for shard_index, address in taken:
            self._dial(address, "dynamic-dial", shard_index)
        if self.controller is not None:
            # the tick's per-shard dial counts are the simnet's queue-depth
            # gauge; every dial above has already folded, so an op decided
            # here applies with zero in-flight work (the drain is implicit)
            loads = [0.0] * self.plan.shards
            for shard_index, _ in taken:
                loads[shard_index] += 1
            ops = self.controller.observe(loads, now=now)
            for op_action, op_index in ops:
                self._apply_reshard(op_action, op_index)
            if ops:
                self.plan.publish(self.telemetry)
        self._refresh_shard_health()

    def _refresh_shard_health(self) -> None:
        """Push the per-shard health gauges (journal backlog) once a tick."""
        for index, shard_telemetry in enumerate(self._shard_telemetry):
            shard_telemetry.record_shard_health(
                journal_backlog=self.coordinator.backlog(index)
            )
        if self.scoreboard is not None:
            self.telemetry.record_shard_health(
                open_breakers=self.scoreboard.open_count
            )

    # -- elastic resharding ----------------------------------------------------

    def _apply_reshard(self, action: str, index: int) -> None:
        """Apply one plan change between ticks (the simnet handoff).

        The scanner is synchronous, so "drain in-flight dials" is free:
        every dial of the triggering tick has already folded through the
        writer.  The coordinator mutates the plan, seals the parent
        segment(s) and opens the children's.  StaticNodes is untouched —
        the plan is not in it — so the due set of every future tick (and
        therefore the dial set) is unchanged: the conformance equivalence
        argument.
        """
        assert self.controller is not None
        count = 1 if action == "split" else 2
        children = self.coordinator.handoff(
            action,
            index,
            step=self.controller.step - 1,  # the observation that decided this
        )
        self._shard_telemetry[index : index + count] = [
            self.telemetry.for_shard(child.segment) for child in children
        ]
        self.core.replan(index, count, [self.scoreboard] * len(children))

    def _lookup(self, target_hash: bytes) -> list[NodeAddress]:
        """Iterative FIND_NODE toward the target whose keccak-256 is
        ``target_hash`` (paper §2.1 semantics).

        Starting candidates come from the crawler's own routing table by
        a bucket walk outward from the target's bucket — an approximation
        of Geth, which scans its whole table for the closest.  Every node
        learned on the way enters both the table and the address book;
        the return is every record an answer carried.
        """
        addresses = self.core.addresses
        lookup: Lookup[NodeAddress] = Lookup(
            target_hash,
            self.node_id,
            (
                addresses[enode.node_id]
                for enode in self.table.closest_in_buckets(target_hash, K_NEIGHBORS)
                if enode.node_id in addresses
            ),
        )
        while candidates := lookup.next_round():
            for address in candidates:
                answer = self.world.find_node_query(address, target_hash)
                if answer is not None:
                    for record in lookup.feed(answer):
                        self._learn(record)
        return list(lookup.results.values())

    def _learn(self, address: NodeAddress) -> None:
        """Fold a discovered address into the book and routing table."""
        if address.node_id not in self.core.addresses:
            try:
                self.table.add(
                    ENode(address.node_id, address.ip, address.udp_port, address.tcp_port)
                )
            except (DiscoveryError, ValueError):
                return
        self.core.addresses[address.node_id] = address

    # -- dialing -------------------------------------------------------------------

    def _dial(self, address: NodeAddress, connection_type: str, shard_index: int) -> None:
        """One outbound dial, if the core's breaker gate admits it; the
        core scores the outcome and decides whether it joins StaticNodes."""
        if not self.core.admit(shard_index, address):
            self.defense_stats.breaker_skips += 1
            self.telemetry.record_breaker_skip()
            return
        with self.telemetry.profiler.scope("scanner.dial"):
            result = self.world.dial(address, connection_type, self.location)
        self._record(result, shard_index)
        self.core.dial_done(shard_index, address, result, self.world.now)

    def _static_tick(self) -> None:
        """Re-dial every static node whose re-dial time has come, in the
        order they joined StaticNodes — like a discovery tick's dials, the
        same sequence under any shard count."""
        for shard_index, address in self.core.due_statics(self.world.now):
            self._dial(address, "static-dial", shard_index)

    def _prune_stale(self) -> None:
        """Drop addresses with no successful TCP connection for >24h (§4)."""
        self.core.prune(self.world.now)

    # -- incoming ------------------------------------------------------------------

    def handle_incoming(self, result: DialResult) -> None:
        """World-delivered inbound connection (Listener protocol)."""
        shard_index = self.plan.shard_of(result.node_id)
        self._record(result, shard_index)
        # Inbound peers become static-dial targets too — how NodeFinder
        # keeps tabs on otherwise-unreachable nodes while they last.
        if self.core.inbound(result, self.world.now):
            self._learn(
                NodeAddress(result.node_id, result.ip, result.tcp_port, result.tcp_port)
            )

    # -- bookkeeping ------------------------------------------------------------------

    def _record(self, result: DialResult, shard_index: int = 0) -> None:
        # every fold goes through the single writer (OWNERSHIP invariant)
        self.writer.submit(result)
        # simulated dials have no spans (no real stages ran), but they
        # share the funnel counters and journal schema with live crawls;
        # each shard counts under its own label
        self._shard_telemetry[shard_index].record_dial(
            result, attempt=result.attempts
        )

    def watch_bootstrap(self, node_id: bytes) -> None:
        # stats mutations route through the writer (OWNERSHIP invariant)
        self.writer.watch_bootstrap(node_id)
