"""Per-node behaviour: what happens when something dials a simulated node.

``SimNode`` wraps a :class:`~repro.simnet.population.NodeSpec` with the
dynamic state the crawler observes: whether the node is online, whether its
peer slots are full (the dominant "Too many peers" outcome of §3/Table 1),
its HELLO and STATUS content at a given sim time, its DAO-check answer, and
its FIND_NODE behaviour under its client's distance metric.
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple, Optional

from repro.chain.forks import BYZANTIUM_BLOCK, DAO_FORK_BLOCK
from repro.chain.synthetic import SyntheticChain
from repro.devp2p.messages import DisconnectReason
from repro.discovery.enode import cached_id_hash
from repro.discovery.distance import parity_log_distance_of_xor
from repro.nodefinder.records import DialOutcome, DialResult
from repro.simnet.population import NodeSpec, PopulationBuilder
from repro.units import SECONDS_PER_DAY

#: the first read-ahead block, in ``random()`` draws; later blocks grow with
#: the draws a node has used, so a node dialled often refills rarely
_READ_AHEAD_FIRST = 8
#: one Mersenne Twister block (624 32-bit words) is 312 ``random()`` draws
_READ_AHEAD_MAX = 312


class NodeAddress(NamedTuple):
    """What discovery tells you about a node: identity + endpoint."""

    node_id: bytes
    ip: str
    udp_port: int
    tcp_port: int


class SimNode:
    """Runtime wrapper around a NodeSpec."""

    __slots__ = (
        "spec",
        "address",
        "builder",
        "id_hash",
        "id_hash_int",
        "occupancy",
        "status_reliability",
        "neighbors",
        # the node's outcome stream is Random(_seed) held as a position:
        # _drawn counts the random() draws used so far (the occupancy draw
        # included) and _ahead holds the next few, last draw first; _ahead is
        # None until the first connection past handle_connection's liveness
        # gate
        "_seed",
        "_drawn",
        "_ahead",
    )

    def __init__(
        self,
        spec: NodeSpec,
        builder: PopulationBuilder,
        rng: random.Random,
        stream: random.Random,
    ) -> None:
        self.spec = spec
        #: the one record every FIND_NODE answer naming this node carries —
        #: built once, since everything in it is static
        self.address = NodeAddress(spec.node_id, spec.ip, spec.udp_port, spec.tcp_port)
        self.builder = builder
        # shared with the scanner's address-book cache, and a hit already
        # when the world warmed its population's IDs in bulk: every later
        # cached_id_hash/cached_id_hash_int call on this ID hits too
        self.id_hash = cached_id_hash(spec.node_id)
        self.id_hash_int = int.from_bytes(self.id_hash, "big")
        self._seed = rng.getrandbits(64)
        stream.seed(self._seed)
        self.occupancy, self._drawn = self._draw_occupancy(stream)
        self._ahead: Optional[array] = None
        #: P(STATUS exchange succeeds | HELLO succeeded) — paper: 323,584
        #: STATUS out of 335,036 eth HELLOs ≈ 0.97 per *node*, lower per dial
        self.status_reliability = 0.93 if spec.service == "eth" else 0.0
        self.neighbors: list["SimNode"] = []

    def _draw_occupancy(self, rng: random.Random) -> tuple[float, int]:
        """Probability that a given dial finds every peer slot taken, and
        how many ``random()`` draws ``rng`` spent on it."""
        spec = self.spec
        if spec.runs_nodefinder:
            return 0.0, 0  # scanners accept everything (§4)
        if spec.service == "eth" and spec.network_name in ("mainnet", "classic"):
            # case study: Geth full 99.1%, Parity 91.5% of the time; dialing
            # later retries catches the brief windows, so per-dial slightly lower
            base = 0.97 if spec.client_family == "geth" else 0.90
            return min(0.99, max(0.5, rng.gauss(base, 0.04))), 2  # Box-Muller
        if spec.service == "eth":
            return rng.uniform(0.05, 0.6), 1  # small networks rarely fill up
        return rng.uniform(0.1, 0.7), 1

    def _random(self, stream: random.Random) -> float:
        """The next ``random()`` of this node's stream."""
        ahead = self._ahead
        if not ahead:
            ahead = self._ahead = self._refill(stream)
        self._drawn += 1
        return ahead.pop()

    def _refill(self, stream: random.Random) -> array:
        """Read the stream's next block by re-seeding ``stream``.

        ``stream`` is any generator the caller lets this node re-seed.  Each
        ``random()`` takes two 32-bit words, so one ``getrandbits`` skips
        the draws already used.
        """
        drawn = self._drawn
        stream.seed(self._seed)
        if drawn:
            stream.getrandbits(64 * drawn)
        size = min(_READ_AHEAD_MAX, max(_READ_AHEAD_FIRST, drawn))
        draw = stream.random
        ahead = array("d", [draw() for _ in range(size)])
        ahead.reverse()  # popped from the end
        return ahead

    # -- chain view -------------------------------------------------------------

    def best_block(self, world_height: int) -> int:
        spec = self.spec
        if spec.freshness == "stuck-byzantium":
            return BYZANTIUM_BLOCK + 1
        return max(0, world_height - spec.lag_blocks)

    def dao_answer(self, world_height: int) -> str:
        """The DAO-check outcome a crawler records: supports/opposes/empty."""
        if self.best_block(world_height) < DAO_FORK_BLOCK:
            return "empty"
        return "supports" if self.spec.supports_dao else "opposes"

    # -- discovery ------------------------------------------------------------

    def find_node(self, target_hash: bytes, count: int = 16) -> list["SimNode"]:
        """Answer FIND_NODE from this node's neighbour set.

        Geth-metric nodes return true XOR-nearest neighbours; Parity-metric
        nodes rank by their summed-byte log distance, whose coarse, shifted
        buckets make their answers nearly useless for a Geth-style lookup
        (§6.3) — ties are broken arbitrarily, not by real closeness.
        """
        target_int = int.from_bytes(target_hash, "big")
        if self.spec.metric == "parity":
            ranked = sorted(self.neighbors, key=lambda node: (
                parity_log_distance_of_xor(node.id_hash_int ^ target_int),
                node.id_hash_int & 0xFFFF,  # arbitrary tiebreak
            ))
        else:
            ranked = sorted(self.neighbors, key=lambda node: node.id_hash_int ^ target_int)
        return ranked[:count]

    # -- dialing ---------------------------------------------------------------

    def handle_connection(
        self,
        now: float,
        connection_type: str,
        chain: SyntheticChain,
        world_height: int,
        rtt: float,
        stream: random.Random,
    ) -> DialResult:
        """Simulate one connection from a NodeFinder-style scanner.

        The scanner side never disconnects first, accepts everything and
        asks every Mainnet-genesis peer the DAO question; outcomes are
        driven by this node's state (paper §4 design).  ``stream`` is a
        generator this call may re-seed to read the node's own stream.
        """
        spec = self.spec
        day = now / SECONDS_PER_DAY
        node_id = spec.node_id
        ip = spec.ip
        tcp_port = spec.tcp_port
        incoming = connection_type == "incoming"
        if not spec.is_online(day) or (not incoming and not spec.reachable):
            return DialResult(
                timestamp=now,
                node_id=node_id,
                ip=ip,
                tcp_port=tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.TIMEOUT,
                latency=rtt,
                duration=15.0,  # defaultDialTimeout
            )
        if self._random(stream) < 0.004:
            return DialResult(
                timestamp=now,
                node_id=node_id,
                ip=ip,
                tcp_port=tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.CONNECTION_REFUSED,
                latency=rtt,
                duration=rtt,
            )
        if self._random(stream) < 0.003:  # paper: 357,710 RLPx vs 356,492 HELLO
            return DialResult(
                timestamp=now,
                node_id=node_id,
                ip=ip,
                tcp_port=tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.DISCONNECT_BEFORE_HELLO,
                latency=rtt,
                duration=2 * rtt,
                disconnect_reason=DisconnectReason.TCP_ERROR,
            )
        if not incoming and self._random(stream) < self.occupancy:
            # full node: DISCONNECT(Too many peers) instead of a session
            return DialResult(
                timestamp=now,
                node_id=node_id,
                ip=ip,
                tcp_port=tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.HELLO_THEN_DISCONNECT,
                latency=rtt,
                duration=2 * rtt,
                disconnect_reason=DisconnectReason.TOO_MANY_PEERS,
            )
        client_id = self.builder.client_string_at(spec, day)
        capabilities = spec.capabilities  # shared, never mutated
        if spec.service != "eth":
            # no shared eth capability: session dies as Useless peer
            return DialResult(
                timestamp=now,
                node_id=node_id,
                ip=ip,
                tcp_port=tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.HELLO_THEN_DISCONNECT,
                latency=rtt,
                duration=3 * rtt,
                client_id=client_id,
                capabilities=capabilities,
                listen_port=tcp_port,
                disconnect_reason=DisconnectReason.USELESS_PEER,
            )
        if self._random(stream) > self.status_reliability:
            return DialResult(
                timestamp=now,
                node_id=node_id,
                ip=ip,
                tcp_port=tcp_port,
                connection_type=connection_type,
                outcome=DialOutcome.HELLO_NO_STATUS,
                latency=rtt,
                duration=rtt + 30.0,  # frameReadTimeout expiry
                client_id=client_id,
                capabilities=capabilities,
                listen_port=tcp_port,
                disconnect_reason=DisconnectReason.READ_TIMEOUT,
            )
        best = self.best_block(world_height)
        dao_side: Optional[str] = None
        if spec.claims_mainnet_genesis:
            dao_side = self.dao_answer(world_height)
        return DialResult(
            timestamp=now,
            node_id=node_id,
            ip=ip,
            tcp_port=tcp_port,
            connection_type=connection_type,
            outcome=DialOutcome.FULL_HARVEST,
            latency=rtt,
            # Random.uniform(a, b) is a + (b - a) * random()
            duration=4 * rtt + (0.005 + (0.1 - 0.005) * self._random(stream)),
            client_id=client_id,
            capabilities=capabilities,
            listen_port=tcp_port,
            network_id=spec.network_id,
            genesis_hash=spec.genesis_hash,
            total_difficulty=chain.total_difficulty_at(best),
            best_hash=chain.block_hash(best),
            best_block=best,
            dao_side=dao_side,
            head_height=world_height,
        )
