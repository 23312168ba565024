"""The assembled simulated ecosystem NodeFinder crawls.

``SimWorld`` owns the clock, the population, per-network synthetic chains,
the abusive node-ID factories, and the plumbing a crawler uses:

* ``dial(address, ...)`` — a TCP connection attempt, answered from the
  target node's behaviour model;
* ``find_node_query(address, target)`` — a bonded discv4 FIND_NODE,
  answered from the target's neighbour table under its own metric;
* listener registration — unreachable (NATed) nodes and abusive factories
  periodically dial registered listeners, which is the only way a crawler
  ever sees them (paper §5.5, Table 2's NFU column).

The Mainnet chain grows in real (simulated) time, so STATUS best-blocks and
Figure 14 freshness come out of node lag, not hardcoding.
"""

from __future__ import annotations

import gc
import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.chain.forks import BYZANTIUM_BLOCK
from repro.chain.synthetic import (
    MAINNET_HEIGHT_APRIL_2018,
    SyntheticChain,
    forget_synthetic_pairs,
    warm_chain_seeds,
    warm_synthetic_pairs,
)
from repro.discovery.enode import cached_id_hash, warm_id_hashes
from repro.errors import SimulationError
from repro.nodefinder.records import DialOutcome, DialResult
from repro.simnet.clock import WheelClock
from repro.simnet.geo import GeoModel, Location
from repro.simnet.node import NodeAddress, SimNode
from repro.simnet.population import (
    AbusiveIPSpec,
    NodeSpec,
    PopulationBuilder,
    PopulationConfig,
    generate_population,
)
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Blocks mined per second on the simulated Mainnet (15s interval).
BLOCKS_PER_SECOND = 1.0 / 15.0
#: neighbour-table size per node (discovery answers come from these)
NEIGHBOR_COUNT = 30
#: how often a slice of neighbour tables is refreshed, hours
NEIGHBOR_REFRESH_HOURS = 6.0
#: Mainnet head height at sim day 0 (2018-04-18)
MAINNET_START_HEIGHT = MAINNET_HEIGHT_APRIL_2018 - 5 * 5760
#: per-online-node rate of dialing each registered listener, per day
INCOMING_RATE_PER_DAY = 2.5
#: how many hardcoded bootnodes a crawler starts from
BOOTSTRAP_COUNT = 6


class Listener(Protocol):
    """Something that accepts incoming connections (a NodeFinder instance)."""

    location: Location
    node_id: bytes

    def handle_incoming(self, result: DialResult) -> None: ...


@dataclass
class WorldConfig:
    """World-level knobs on top of the population config."""

    population: PopulationConfig = field(default_factory=PopulationConfig)
    seed: int = 7


class AbusiveFactory:
    """Runtime state of one §5.4 node-ID-churning IP."""

    def __init__(self, spec: AbusiveIPSpec, rng: random.Random):
        self.spec = spec
        self._rng = random.Random(rng.getrandbits(64))
        self.spawned: list[bytes] = []
        self._current: Optional[bytes] = None
        self._current_born: float = -1.0

    def is_active(self, now: float) -> bool:
        day = now / SECONDS_PER_DAY
        return self.spec.arrival_day <= day < self.spec.departure_day

    def current_node_id(self, now: float) -> bytes:
        """The factory's node ID right now; 80% of IDs are used just once."""
        lifetime = self.spec.node_lifetime_minutes * 60.0
        if (
            self._current is None
            or now - self._current_born > lifetime
            or self._rng.random() < 0.8
        ):
            self._current = self._rng.randbytes(64)
            self._current_born = now
            self.spawned.append(self._current)
        return self._current

    def dial_result(self, now: float, chain: SyntheticChain) -> DialResult:
        """What a listener records when this factory dials in.

        Mimics the flagship IP: ethereumjs client, Mainnet network id, best
        hash pinned to the genesis hash (an unsynced, freshly-created node).
        """
        node_id = self.current_node_id(now)
        return DialResult(
            timestamp=now,
            node_id=node_id,
            ip=self.spec.ip,
            tcp_port=30303,
            connection_type="incoming",
            outcome=DialOutcome.FULL_HARVEST,
            latency=0.05 + self._rng.random() * 0.1,
            duration=0.2,
            client_id=self.spec.client_string,
            capabilities=[("eth", 62), ("eth", 63)],
            listen_port=30303,
            network_id=1,
            genesis_hash=chain.genesis_hash,
            total_difficulty=chain.total_difficulty_at(0),
            best_hash=chain.genesis_hash,  # bestHash == genesis (§5.4)
            best_block=0,
            dao_side="empty",
        )


class SimWorld:
    """The ecosystem: population + chains + clock + crawler plumbing."""

    def __init__(
        self,
        config: WorldConfig | None = None,
        clock: WheelClock | None = None,
    ) -> None:
        self.config = config or WorldConfig()
        # injectable so the equivalence harness can run the same world on
        # the wheel and on its binary-heap reference; everything else takes
        # the default
        self.clock = clock if clock is not None else WheelClock()
        self.rng = random.Random(self.config.seed)
        # re-seeded per dial for its RTT, then by the dialled node to read
        # its own outcome stream, and by each node's build for its occupancy
        self._dial_rng_instance = random.Random(0)
        specs, abusive_specs, builder = generate_population(self.config.population)
        self.builder: PopulationBuilder = builder
        self.geo: GeoModel = builder.geo
        # one vectorised keccak pass over every node ID: each SimNode's
        # id_hash below is then a memo hit
        warm_id_hashes(spec.node_id for spec in specs)
        self.nodes: dict[bytes, SimNode] = {
            spec.node_id: SimNode(spec, builder, self.rng, self._dial_rng_instance)
            for spec in specs
        }
        self.factories = [AbusiveFactory(spec, self.rng) for spec in abusive_specs]
        self._chains: dict[bytes, SyntheticChain] = {}
        self.mainnet = SyntheticChain("mainnet", height=MAINNET_START_HEIGHT)
        self._chains[self.mainnet.genesis_hash] = self.mainnet
        self.listeners: list[Listener] = []
        self._online_cache: tuple[float, list[SimNode]] = (-1.0, [])
        # every best-hash a node can advertise is `chain head - lag` for a
        # lag fixed at build time, so the hash set is knowable in advance:
        # group the lags per effective genesis, then open every follower
        # chain and bulk-warm the synthetic hash memo for all of them at
        # once instead of paying a ~200us scalar miss per chain seed and
        # per distinct height on the dial path
        self._lags_by_genesis: dict[bytes, set[int]] = {}
        self._stuck_genesis: set[bytes] = set()
        for spec in specs:
            genesis = spec.genesis_hash or self.mainnet.genesis_hash
            if spec.freshness == "stuck-byzantium":
                self._stuck_genesis.add(genesis)
            else:
                self._lags_by_genesis.setdefault(genesis, {0}).add(
                    spec.lag_blocks
                )
        self._warm_advertised([self.mainnet, *self._open_chains(specs)])
        self._assign_neighbors(initial=True)
        self._schedule_background()

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def day(self) -> float:
        return self.clock.now / SECONDS_PER_DAY

    @property
    def mainnet_height(self) -> int:
        return self.mainnet.height

    def run_days(self, days: float) -> None:
        self.clock.run_for(days * SECONDS_PER_DAY)

    # -- chains ------------------------------------------------------------------

    def chain_for(self, spec: NodeSpec) -> SyntheticChain:
        """The synthetic chain matching a node's genesis (created lazily)."""
        genesis = spec.genesis_hash or self.mainnet.genesis_hash
        chain = self._chains.get(genesis)
        if chain is None:  # adversary-injected and late nodes
            (chain,) = self._open_chains([spec])
            self._warm_advertised([chain])
        return chain

    def _open_chains(self, specs: list[NodeSpec]) -> list[SyntheticChain]:
        """Create and return the follower chain of every genesis in
        ``specs`` not seen yet (the first spec naming a genesis defines
        its chain), hashing all their ``chain:`` seeds in one batch."""
        founders: dict[bytes, NodeSpec] = {}
        for spec in specs:
            genesis = spec.genesis_hash or self.mainnet.genesis_hash
            if genesis not in self._chains:
                founders.setdefault(genesis, spec)
        warm_chain_seeds(
            (spec.network_name or "custom", genesis)
            for genesis, spec in founders.items()
        )
        height = max(1000, self.mainnet.height // 50)
        for genesis, spec in founders.items():
            self._chains[genesis] = SyntheticChain(
                name=spec.network_name or "custom",
                genesis_hash=genesis,
                height=height,
                supports_dao_fork=spec.supports_dao,
                network_id=spec.network_id or 0,
            )
        return [self._chains[genesis] for genesis in founders]

    def _advertised(self, chain: SyntheticChain) -> list[tuple[bytes, int]]:
        """The ``(chain seed, height)`` key of every best-hash the followers
        of ``chain`` can advertise right now, from the lag sets fixed at
        build time."""
        genesis, seed, head = chain.genesis_hash, chain._seed, chain.height
        pairs = [(seed, head - lag) for lag in self._lags_by_genesis.get(genesis, {0})]
        if genesis in self._stuck_genesis:
            pairs.append((seed, BYZANTIUM_BLOCK + 1))
        return pairs

    def _warm_advertised(self, chains: list[SyntheticChain]) -> None:
        """Bulk-hash every best-hash the followers of ``chains`` can
        advertise right now.

        One vectorised keccak pass however many chains (the build's whole
        set, one lazily opened chain, Mainnet at each hourly growth tick).
        Pure pre-computation: no RNG, values identical to the lazy
        per-miss path.
        """
        warm_synthetic_pairs(pair for chain in chains for pair in self._advertised(chain))

    def _height_for(self, node: SimNode) -> int:
        """The head height of the network this node follows."""
        if node.spec.claims_mainnet_genesis:
            return self.mainnet.height
        return self.chain_for(node.spec).height

    # -- background processes --------------------------------------------------

    def _schedule_background(self) -> None:
        def grow_chain() -> None:
            # only the current generation is ever asked for: the memo drops
            # the previous one's heights, so it holds what is live, not one
            # generation per simulated hour
            previous = self._advertised(self.mainnet)
            self.mainnet.advance(int(SECONDS_PER_HOUR * BLOCKS_PER_SECOND))
            current = self._advertised(self.mainnet)
            forget_synthetic_pairs(set(previous).difference(current))
            warm_synthetic_pairs(current)

        self.clock.schedule_every(SECONDS_PER_HOUR, grow_chain, label="world.grow_chain")
        refresh_interval = NEIGHBOR_REFRESH_HOURS * SECONDS_PER_HOUR

        def refresh_neighbors() -> None:
            self._assign_neighbors(initial=False)

        self.clock.schedule_every(
            refresh_interval, refresh_neighbors, label="world.refresh_neighbors"
        )

    def _assign_neighbors(self, initial: bool) -> None:
        """(Re)build neighbour tables.

        Initially every node gets a table; afterwards a rotating sixth of
        the population refreshes, folding newly-arrived nodes into the
        discovery fabric.
        """
        population = list(self.nodes.values())
        if not population:
            return
        count = NEIGHBOR_COUNT
        targets = (
            population
            if initial
            else self.rng.sample(population, max(1, len(population) // 6))
        )
        for node in targets:
            sample_size = min(count, len(population) - 1)
            node.neighbors = self.rng.sample(population, sample_size)

    # -- online bookkeeping -------------------------------------------------------

    def online_nodes(self) -> list[SimNode]:
        """Currently-online nodes (cached for 10 sim-minutes)."""
        cached_at, cached = self._online_cache
        if self.now - cached_at < 600.0:
            return cached
        day = self.day
        online = [node for node in self.nodes.values() if node.spec.is_online(day)]
        self._online_cache = (self.now, online)
        return online

    def node_address(self, node: SimNode) -> NodeAddress:
        return node.address

    def bootstrap_addresses(self) -> list[NodeAddress]:
        """Stable, reachable, long-lived nodes — the hardcoded bootnodes."""
        candidates = [
            node
            for node in self.nodes.values()
            if node.spec.reachable
            and node.spec.arrival_day == 0.0
            and node.spec.uptime_fraction >= 0.999
            and node.spec.service == "eth"
        ]
        candidates.sort(key=lambda node: node.id_hash)
        return [self.node_address(node) for node in candidates[:BOOTSTRAP_COUNT]]

    # -- crawler plumbing ----------------------------------------------------------

    def _dial_rng(self, from_ip: str, to_ip: str, node_id: bytes) -> random.Random:
        """A per-dial RNG seeded purely from the dial's identity.

        RTT draws used to come off the shared world RNG, which made every
        dial's latency depend on global dial *order*.  A sharded crawl
        reorders dials within a tick, so latencies instead derive from
        (who, whom, when, world seed) — the same dial draws the same RTT
        no matter how many shards the crawler runs, which is what lets
        the shard-conformance suite assert entry-for-entry DB equality.
        """
        seed = zlib.crc32(
            f"{from_ip}|{to_ip}|{self.now:.6f}|{self.config.seed}".encode()
        ) ^ zlib.crc32(node_id)
        # re-seeding one shared instance is state-identical to constructing
        # a fresh Random(seed), and dials happen ~1.7/node/day: both call
        # sites consume the draws before the next dial re-seeds
        rng = self._dial_rng_instance
        rng.seed(seed)
        return rng

    def find_node_query(
        self, address: NodeAddress, target: bytes
    ) -> Optional[list[NodeAddress]]:
        """A bonded FIND_NODE to ``address`` (None = no reply).

        Only online, reachable nodes answer unsolicited UDP.  Answers come
        from the target's neighbour table under its *own* metric, filtered
        to neighbours it has seen recently (online-ish).  ``target`` is a
        64-byte node ID or, from a caller that already hashed it, its
        32-byte keccak-256.
        """
        if len(target) not in (32, 64):
            raise SimulationError(
                "FIND_NODE target must be a 64-byte node ID or its 32-byte "
                f"keccak-256, got {len(target)} bytes"
            )
        node = self.nodes.get(address.node_id)
        if node is None or not node.spec.reachable:
            return None
        if not node.spec.is_online(self.day):
            return None
        target_hash = cached_id_hash(target) if len(target) == 64 else target
        return [neighbor.address for neighbor in node.find_node(target_hash, count=16)]

    def _dial_listener(
        self, listener: Listener, connection_type: str, from_location: Location
    ) -> DialResult:
        """Dialing another crawler: it accepts everything and harvests back.

        This is how the paper's 30 instances found each other within 9
        hours (§5.2) — each is an ordinary, always-reachable DEVp2p node
        from the outside.
        """
        rtt = self.geo.rtt(
            from_location,
            listener.location,
            self._dial_rng(from_location.ip, listener.location.ip, listener.node_id),
        )
        return DialResult(
            timestamp=self.now,
            node_id=listener.node_id,
            ip=listener.location.ip,
            tcp_port=30303,
            connection_type=connection_type,
            outcome=DialOutcome.FULL_HARVEST,
            latency=rtt,
            duration=3 * rtt,
            client_id="Geth/v1.7.3-stable-nodefinder/linux-amd64/go1.9.2",
            capabilities=[("eth", 62), ("eth", 63)],
            listen_port=30303,
            network_id=1,
            genesis_hash=self.mainnet.genesis_hash,
            total_difficulty=self.mainnet.total_difficulty,
            best_hash=self.mainnet.best_hash,
            best_block=self.mainnet.height,
            head_height=self.mainnet.height,
            dao_side="supports",
        )

    def dial(
        self,
        address: NodeAddress,
        connection_type: str,
        from_location: Location,
    ) -> DialResult:
        """A TCP dial from a crawler at ``from_location``."""
        for listener in self.listeners:
            if listener.node_id == address.node_id:
                return self._dial_listener(listener, connection_type, from_location)
        node = self.nodes.get(address.node_id)
        if node is None:
            # unknown/expired node ID (e.g. an abusive ephemeral): dead air
            return DialResult(
                timestamp=self.now,
                node_id=address.node_id,
                ip=address.ip,
                tcp_port=address.tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.TIMEOUT,
                duration=15.0,
            )
        rtt = self.geo.rtt(
            from_location,
            node.spec.location,
            self._dial_rng(from_location.ip, node.spec.location.ip, node.spec.node_id),
        )
        return node.handle_connection(
            now=self.now,
            connection_type=connection_type,
            chain=self.chain_for(node.spec),
            world_height=self._height_for(node),
            rtt=rtt,
            stream=self._dial_rng_instance,
        )

    # -- listeners (incoming connections) ---------------------------------------

    def register_listener(self, listener: Listener) -> None:
        """Register a crawler for incoming connections.

        Every 10 sim-minutes the world delivers a Poisson batch of inbound
        dials from online nodes (reachable and unreachable alike) and from
        any active abusive factory.
        """
        self.listeners.append(listener)
        self._add_listener_presence(listener)
        interval = 600.0

        def deliver() -> None:
            online = self.online_nodes()
            if online:
                rate = len(online) * INCOMING_RATE_PER_DAY / 144.0
                count = self._poisson(rate)
                batch = self._sample(online, count)
                # one batched pass over the world RNG: same draws in the
                # same order as per-node rtt() calls would make
                rtts = self.geo.rtt_batch(
                    listener.location,
                    [node.spec.location for node in batch],
                    self.rng,
                )
                now = self.now
                for node, rtt in zip(batch, rtts):
                    result = node.handle_connection(
                        now=now,
                        connection_type="incoming",
                        chain=self.chain_for(node.spec),
                        world_height=self._height_for(node),
                        rtt=rtt,
                        stream=self._dial_rng_instance,
                    )
                    if result.outcome is not DialOutcome.TIMEOUT:
                        listener.handle_incoming(result)
        self.clock.schedule_every(interval, deliver, label="world.deliver_incoming")
        if len(self.listeners) == 1:
            self._schedule_factory_deliveries(interval)

    def _add_listener_presence(self, listener: Listener) -> None:
        """Give a crawler a presence in the discovery fabric.

        A NodeFinder instance is an ordinary, always-on, reachable DEVp2p
        node from the network's perspective: it enters peers' k-buckets and
        spreads through NEIGHBORS answers — which is how the paper's 30
        instances all found each other within 9 hours (§5.2).
        """
        spec = NodeSpec(
            node_id=listener.node_id,
            location=listener.location,
            tcp_port=30303,
            udp_port=30303,
            service="eth",
            capabilities=[("eth", 62), ("eth", 63)],
            client_family="geth",
            client_string="Geth/v1.7.3-stable-nodefinder/linux-amd64/go1.9.2",
            version_behaviour=None,
            peer_limit=10_000,
            metric="geth",
            network_name="mainnet",
            network_id=1,
            genesis_hash=self.mainnet.genesis_hash,
            supports_dao=True,
            reachable=True,
            arrival_day=self.day,
            uptime_fraction=1.0,
            runs_nodefinder=True,
        )
        node = SimNode(spec, self.builder, self.rng, self._dial_rng_instance)
        node.occupancy = 0.0  # scanners never report Too many peers (§4)
        population = list(self.nodes.values())
        if population:
            node.neighbors = self.rng.sample(
                population, min(NEIGHBOR_COUNT, len(population))
            )
            # a crawler pings the whole network within hours, so it lands
            # in a big slice of everyone's k-buckets almost immediately
            for other in self.rng.sample(population, max(1, len(population) // 4)):
                if other.neighbors:
                    other.neighbors.append(node)
        self.nodes[spec.node_id] = node

    def _schedule_factory_deliveries(self, interval: float) -> None:
        """One world-level loop: each factory dials one listener per spawn.

        A factory produces node IDs at its spawn rate regardless of how
        many crawlers are listening; each spawned identity dials a random
        listener (the fleet's merged database sees it once either way).
        """

        def deliver_abusive() -> None:
            if not self.listeners:
                return
            for factory in self.factories:
                if not factory.is_active(self.now):
                    continue
                rate = interval / (factory.spec.spawn_interval_minutes * 60.0)
                for _ in range(self._poisson(rate)):
                    listener = self.rng.choice(self.listeners)
                    listener.handle_incoming(
                        factory.dial_result(self.now, self.mainnet)
                    )

        self.clock.schedule_every(
            interval, deliver_abusive, label="world.deliver_abusive"
        )

    def enable_gc_hygiene(self) -> None:
        """Take cyclic-GC pauses out of the crawl's measured path.

        A 100k-node world pins tens of millions of long-lived objects;
        the ambient generational collector rescans them on its own
        thresholds, stalling mid-tick.  Freeze the fully-built world into
        the permanent generation and run explicit collections on the sim
        clock instead, hourly (the bitcoin-simulator ``improve_performance``
        pattern).  GC timing has no effect on Python semantics, so this
        is observably free: the extra clock events never reorder
        neighbouring events (they get fresh sequence numbers) and draw no
        RNG.
        """
        gc.collect()
        gc.freeze()
        self.clock.schedule_every(
            SECONDS_PER_HOUR, lambda: gc.collect(), label="world.gc_hygiene"
        )

    def _poisson(self, rate: float) -> int:
        # Knuth's method is fine for small rates; cap for safety
        if rate <= 0:
            return 0
        if rate > 30:
            return max(0, int(self.rng.gauss(rate, rate**0.5)))
        limit = 2.718281828 ** (-rate)
        count, product = 0, self.rng.random()
        while product > limit:
            count += 1
            product *= self.rng.random()
        return count

    def _sample(self, population: list, count: int) -> list:
        if count >= len(population):
            return list(population)
        return self.rng.sample(population, count)

    # -- ground truth for validation ---------------------------------------------

    def ground_truth_mainnet(self, day: float) -> list[SimNode]:
        """Nodes genuinely operating the Mainnet blockchain on ``day``."""
        return [
            node
            for node in self.nodes.values()
            if node.spec.is_mainnet and node.spec.is_online(day)
        ]
