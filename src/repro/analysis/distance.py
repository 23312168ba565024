"""Figure 11 and the §6.3 Geth/Parity discovery-friction experiment.

Figure 11 is directly reproducible: draw random node-ID pairs, hash them,
and histogram both metrics — Geth's log distance piles up at 256
(P(d=256-k) = 2^-(k+1)); Parity's summed-byte variant forms a bell around
~224 and almost never reaches 256.

The friction experiment quantifies §6.3's claim that Parity peers are
"effectively useless" in a Geth node's recursive FIND_NODE: we build
routing tables for a mixed population and measure how much closer one
lookup hop gets when the queried table is Geth-metric vs Parity-metric.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.crypto.keccak import keccak256
from repro.discovery.distance import (
    geth_log_distance,
    parity_log_distance,
)
from repro.discovery.enode import ENode, cached_id_hash, cached_id_hash_int
from repro.discovery.lookup import ALPHA, LOOKUP_ROUNDS, Lookup
from repro.discovery.routing import K_NEIGHBORS, RoutingTable


@dataclass
class DistanceDistribution:
    """Figure 11 histograms."""

    trials: int
    geth: Counter = field(default_factory=Counter)
    parity: Counter = field(default_factory=Counter)

    def geth_mode(self) -> int:
        return max(self.geth, key=self.geth.get)

    def parity_mode(self) -> int:
        return max(self.parity, key=self.parity.get)


def simulate_distance_distribution(
    trials: int = 20_000, seed: int = 11, hash_ids: bool = True
) -> DistanceDistribution:
    """Monte-Carlo over random node-ID pairs (paper used 100K trials).

    ``hash_ids=True`` hashes 64-byte IDs exactly as the clients do;
    ``False`` draws the 32-byte hashes directly (identical distribution,
    ~50x faster — useful for quick runs).
    """
    rng = random.Random(seed)
    result = DistanceDistribution(trials=trials)
    for _ in range(trials):
        if hash_ids:
            hash_a = keccak256(rng.randbytes(64))
            hash_b = keccak256(rng.randbytes(64))
        else:
            hash_a = rng.randbytes(32)
            hash_b = rng.randbytes(32)
        result.geth[geth_log_distance(hash_a, hash_b)] += 1
        result.parity[parity_log_distance(hash_a, hash_b)] += 1
    return result


@dataclass
class FrictionReport:
    """§6.3: one-hop lookup progress through Geth vs Parity tables."""

    lookups: int
    #: mean log2 improvement toward the target per FIND_NODE answer
    geth_mean_improvement: float = 0.0
    parity_mean_improvement: float = 0.0
    #: fraction of answers that got the querier strictly closer
    geth_useful_fraction: float = 0.0
    parity_useful_fraction: float = 0.0


def _random_enode(rng: random.Random) -> ENode:
    return ENode(
        node_id=rng.randbytes(64),
        ip=f"10.{rng.randrange(255)}.{rng.randrange(255)}.{rng.randrange(1, 255)}",
        udp_port=30303,
        tcp_port=30303,
    )


def simulate_friction(
    table_size: int = 400,
    lookups: int = 200,
    seed: int = 5,
) -> FrictionReport:
    """Measure FIND_NODE answer quality from each client's table layout.

    Both tables hold the *same* node population; what differs is the
    bucket metric, hence which nodes survive in which bucket and which are
    consulted for a target (``closest_in_buckets``).  The improvement is
    ``ld_G(querier target) - min ld_G(answer, target)`` — positive means
    the answer moved a Geth-style lookup closer.
    """
    rng = random.Random(seed)
    owner = rng.randbytes(64)
    geth_table = RoutingTable.for_node_id(owner, metric=geth_log_distance)
    parity_table = RoutingTable.for_node_id(owner, metric=parity_log_distance)
    population = [_random_enode(rng) for _ in range(table_size)]
    for node in population:
        geth_table.add(node)
        parity_table.add(node)
    report = FrictionReport(lookups=lookups)
    geth_gains: list[int] = []
    parity_gains: list[int] = []
    for _ in range(lookups):
        target_hash = keccak256(rng.randbytes(64))
        start_distance = geth_log_distance(keccak256(owner), target_hash)
        for table, gains in ((geth_table, geth_gains), (parity_table, parity_gains)):
            answer = table.closest_in_buckets(
                target_hash, count=16, sort_by_own_metric=table is parity_table
            )
            if not answer:
                gains.append(0)
                continue
            best = min(
                geth_log_distance(node.id_hash, target_hash) for node in answer
            )
            gains.append(start_distance - best)
    report.geth_mean_improvement = sum(geth_gains) / max(len(geth_gains), 1)
    report.parity_mean_improvement = sum(parity_gains) / max(len(parity_gains), 1)
    report.geth_useful_fraction = sum(1 for g in geth_gains if g > 0) / max(
        len(geth_gains), 1
    )
    report.parity_useful_fraction = sum(1 for g in parity_gains if g > 0) / max(
        len(parity_gains), 1
    )
    return report


class _Peer(NamedTuple):
    """A node of the §6.3 lookup experiment: an ID and nothing to dial."""

    node_id: bytes


@dataclass
class ConvergenceReport:
    """§6.3 iterated-lookup experiment: how close lookups get to targets
    when the network is all-Geth, all-Parity, or mixed."""

    population: int
    lookups: int
    #: mean final Geth log distance between the answer and the target's
    #: true nearest node, per network composition (0 = perfect convergence)
    final_gap: dict = field(default_factory=dict)
    #: fraction of lookups that found the true nearest node
    exact_hit: dict = field(default_factory=dict)


#: the client mixes a convergence run simulates, in order
COMPOSITIONS = ("geth", "parity", "mixed")
#: a convergence lookup's round cap: twice the crawlers'
CONVERGENCE_ROUNDS = 2 * LOOKUP_ROUNDS


def simulate_lookup_convergence(
    population: int = 600,
    lookups: int = 120,
    neighbors_per_node: int = 30,
    seed: int = 9,
) -> ConvergenceReport:
    """Run full iterative lookups through networks of differing client mix.

    Every node holds a random neighbour sample; Geth-metric nodes answer
    FIND_NODE with their 16 XOR-nearest neighbours, Parity-metric nodes
    with the 16 "nearest" under their summed-byte metric.  The lookup is
    the crawlers' :class:`~repro.discovery.lookup.Lookup`, given twice
    their rounds.  In an all-Parity network the answers
    stop correlating with real closeness, so lookups stall several bits
    short of the target — the paper's 'effectively useless' / accidental
    eclipse scenario.
    """
    rng = random.Random(seed)
    peers = [_Peer(rng.randbytes(64)) for _ in range(population)]
    hashes = {peer: cached_id_hash(peer.node_id) for peer in peers}
    hash_ints = {peer: cached_id_hash_int(peer.node_id) for peer in peers}
    neighbor_map = {peer: rng.sample(peers, neighbors_per_node) for peer in peers}
    report = ConvergenceReport(population=population, lookups=lookups)

    def answer(peer: _Peer, metric: str, target_hash: bytes) -> list[_Peer]:
        neighbors = neighbor_map[peer]
        if metric == "parity":
            return sorted(
                neighbors,
                key=lambda n: (
                    parity_log_distance(hashes[n], target_hash),
                    hashes[n][-2:],
                ),
            )[:K_NEIGHBORS]
        target_int = int.from_bytes(target_hash, "big")
        return sorted(neighbors, key=lambda n: hash_ints[n] ^ target_int)[:K_NEIGHBORS]

    for composition in COMPOSITIONS:
        if composition == "geth":
            metric_of = {peer: "geth" for peer in peers}
        elif composition == "parity":
            metric_of = {peer: "parity" for peer in peers}
        else:
            metric_of = {
                peer: ("parity" if rng.random() < 0.5 else "geth") for peer in peers
            }
        gaps = []
        hits = 0
        comp_rng = random.Random(seed + 1)
        for _ in range(lookups):
            target_hash = keccak256(comp_rng.randbytes(64))
            target_int = int.from_bytes(target_hash, "big")
            true_nearest = min(peers, key=lambda n: hash_ints[n] ^ target_int)
            # the asker is outside the network: no own ID to drop
            lookup = Lookup(
                target_hash, None, comp_rng.sample(peers, ALPHA), CONVERGENCE_ROUNDS
            )
            while candidates := lookup.next_round():
                for peer in candidates:
                    lookup.feed(answer(peer, metric_of[peer], target_hash))
            [best] = lookup.closest(1)
            gap = geth_log_distance(hashes[best], target_hash) - geth_log_distance(
                hashes[true_nearest], target_hash
            )
            gaps.append(max(0, gap))
            if best == true_nearest:
                hits += 1
        report.final_gap[composition] = sum(gaps) / max(len(gaps), 1)
        report.exact_hit[composition] = hits / max(lookups, 1)
    return report
