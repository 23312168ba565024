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
profiler scopes and the per-shard journals.
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
from repro.nodefinder.defense import (
    BREAKER_COOLDOWN,
    BREAKER_FAILURE_THRESHOLD,
    MAX_DYNAMIC_DIALS_PER_TICK,
    SUBNET_COOLDOWN,
    SUBNET_FAILURE_THRESHOLD,
    DefenseStats,
)
from repro.nodefinder.records import CrawlStats, DialResult
from repro.nodefinder.shard import JournalRouter, NodeDBWriter, ShardPlan
from repro.resilience.breaker import BreakerState, PeerScoreboard
from repro.simnet.geo import Location
from repro.simnet.node import NodeAddress
from repro.simnet.world import SimWorld
from repro.telemetry import NULL_TELEMETRY, EventJournal, Telemetry
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: discovery ticks pre-drawn, and their targets hashed, per block.  One
#: packed ``keccak256_batch`` pass takes 0.9 ms for 64 targets, 2.3 ms
#: for 256 and 6.4 ms for 1 024, against ≈0.2 ms per scalar hash — so 256
#: hashes a target for ≈9 us, 99% of the saving a longer block would give,
#: while a crawl that stops after a few ticks wastes at most one block.
#: A property of the two hash paths: a constant.
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
    #: journal files partitioning the enode keyspace by node-ID prefix;
    #: dials go out in the same order under any N and each is journaled
    #: in the file of the shard owning the target, so any N produces the
    #: same NodeDB, stats and defence counters as shards=1 (the
    #: shard-conformance suite pins this, defended crawl included)
    shards: int = 1
    #: hostile-load hardening (table admission, subnet breakers, dial
    #: budget, at the limits of :mod:`repro.nodefinder.defense`).  False
    #: keeps the crawler byte-for-byte on its historical undefended
    #: behaviour.
    defended: bool = False


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
        #: what the hardening layer absorbed (empty when not defended)
        self.defense_stats = DefenseStats()
        admission: Optional[TableAdmission] = None
        gate: Optional[PeerScoreboard] = None
        if self.config.defended:
            admission = TableAdmission(on_reject=self._on_table_reject)
            gate = PeerScoreboard(
                failure_threshold=BREAKER_FAILURE_THRESHOLD,
                cooldown=BREAKER_COOLDOWN,
                clock=self._world_now,
                on_transition=self._on_breaker,
                subnet_failure_threshold=SUBNET_FAILURE_THRESHOLD,
                subnet_cooldown=SUBNET_COOLDOWN,
                on_subnet_transition=self._on_subnet_breaker,
            )
        #: the crawler's own Kademlia routing table (Geth metric) — lookups
        #: pick their alpha starting candidates from here, as Geth does
        self.table = RoutingTable.for_node_id(self.node_id, admission=admission)
        self._started = False
        # -- sharding: partition by node-ID prefix, fold via one writer ------
        self.plan = ShardPlan(max(1, int(self.config.shards)))
        #: the crawl's journal: with a ``journal_opener`` every facade of
        #: this crawl writes through it and it places each record in a
        #: shard's file; without one the crawl journals wherever
        #: ``telemetry`` does, or not at all
        self.journals = JournalRouter(
            self.plan, journal_opener, self._world_now, self.node_id, name
        )
        self.telemetry = telemetry = self.journals.facade(telemetry)
        self.writer = NodeDBWriter(self.db, stats=self.stats, telemetry=telemetry)
        #: the §4 policy: StaticNodes, dial history, the breaker gate and
        #: dial budget (crawl-wide; both off when not defended) and the
        #: address book — the discovery pool lookups fill and dials draw on
        self.core: CrawlerCore[NodeAddress] = CrawlerCore(
            self.config.static_dial_interval,
            DIAL_HISTORY_EXPIRATION,
            gate,
            MAX_DYNAMIC_DIALS_PER_TICK if self.config.defended else None,
        )

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
        if self.core.gate is not None:
            self.defense_stats.open_subnets = self.core.gate.open_subnets
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
        # the core filters every candidate first (its filters depend only
        # on state this tick's dials cannot change: each node id appears
        # once per lookup) and sheds what is over its budget; the dials
        # then go out in lookup order, because a /24's breaker trips on
        # the K-th failure in dial order.
        taken, dropped = self.core.select(results, self.node_id, now)
        self.defense_stats.budget_dropped_dials += dropped
        for address in taken:
            self._dial(address, "dynamic-dial")

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

    def _dial(self, address: NodeAddress, connection_type: str) -> None:
        """One outbound dial, if the core's breaker gate admits it; the
        core scores the outcome and decides whether it joins StaticNodes."""
        if not self.core.admit(address):
            self.defense_stats.breaker_skips += 1
            return
        with self.telemetry.profiler.scope("scanner.dial"):
            result = self.world.dial(address, connection_type, self.location)
        self._record(result)
        self.core.dial_done(address, result, self.world.now)

    def _static_tick(self) -> None:
        """Re-dial every static node whose re-dial time has come, in the
        order they joined StaticNodes."""
        for address in self.core.due_statics(self.world.now):
            self._dial(address, "static-dial")

    def _prune_stale(self) -> None:
        """Drop addresses with no successful TCP connection for >24h (§4)."""
        self.core.prune(self.world.now)

    # -- incoming ------------------------------------------------------------------

    def handle_incoming(self, result: DialResult) -> None:
        """World-delivered inbound connection (Listener protocol)."""
        self._record(result)
        # Inbound peers become static-dial targets too — how NodeFinder
        # keeps tabs on otherwise-unreachable nodes while they last.
        if self.core.inbound(result, self.world.now):
            self._learn(
                NodeAddress(result.node_id, result.ip, result.tcp_port, result.tcp_port)
            )

    # -- bookkeeping ------------------------------------------------------------------

    def _record(self, result: DialResult) -> None:
        # every fold goes through the single writer (OWNERSHIP invariant)
        self.writer.submit(result)
        # simulated dials have no spans (no real stages ran), but they
        # share the journal schema with live crawls; the journal router
        # places each in its owning shard's file
        self.telemetry.record_dial(result)

    def watch_bootstrap(self, node_id: bytes) -> None:
        # stats mutations route through the writer (OWNERSHIP invariant)
        self.writer.watch_bootstrap(node_id)
