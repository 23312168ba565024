"""Ecosystem analyses: DEVp2p services (Table 3), networks/genesis hashes
(Figure 9), and the §6.1 useless-peer fraction."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.chain.genesis import MAINNET_GENESIS_HASH
from repro.nodefinder.database import NodeDB


def service_table(db: NodeDB) -> list[tuple[str, int, float]]:
    """Table 3: primary DEVp2p service per HELLO-able node."""
    counts: Counter = Counter()
    total = 0
    for entry in db:
        if not entry.got_hello:
            continue
        counts[entry.primary_service()] += 1
        total += 1
    return [
        (service, count, count / max(total, 1))
        for service, count in counts.most_common()
    ]


@dataclass
class NetworkStats:
    """Figure 9 aggregates."""

    status_nodes: int = 0
    distinct_network_ids: int = 0
    distinct_genesis_hashes: int = 0
    single_peer_networks: int = 0
    fake_mainnet_peers: int = 0
    fake_mainnet_networks: int = 0
    network_shares: list = field(default_factory=list)  # (name/id, share)
    mainnet_nodes: int = 0
    classic_nodes: int = 0

    @property
    def mainnet_share(self) -> float:
        return self.mainnet_nodes / max(self.status_nodes, 1)


def network_stats(db: NodeDB) -> NetworkStats:
    """Compute the Figure 9 view from STATUS-bearing entries."""
    stats = NetworkStats()
    network_counts: Counter = Counter()
    genesis_hashes: set = set()
    network_peers: dict[int, int] = defaultdict(int)
    for entry in db.nodes_with_status():
        stats.status_nodes += 1
        network_counts[(entry.network_id, entry.genesis_hash)] += 1
        genesis_hashes.add(entry.genesis_hash)
        network_peers[entry.network_id] += 1
        mainnet_genesis = entry.genesis_hash == MAINNET_GENESIS_HASH
        if entry.network_id == 1 and mainnet_genesis:
            if entry.dao_side == "opposes":
                stats.classic_nodes += 1
            else:
                stats.mainnet_nodes += 1
        elif mainnet_genesis:
            stats.fake_mainnet_peers += 1
    stats.distinct_network_ids = len(network_peers)
    stats.distinct_genesis_hashes = len(genesis_hashes)
    stats.single_peer_networks = sum(
        1 for count in network_peers.values() if count == 1
    )
    stats.fake_mainnet_networks = len(
        {
            network_id
            for (network_id, genesis), count in network_counts.items()
            if genesis == MAINNET_GENESIS_HASH and network_id != 1
        }
    )
    # deterministic top-12: ties at the cut broken by network id, so the
    # report does not depend on entry iteration order
    top = sorted(network_peers.items(), key=lambda kv: (-kv[1], kv[0]))[:12]
    stats.network_shares = [
        (network_id, count / max(stats.status_nodes, 1)) for network_id, count in top
    ]
    return stats


def useless_fraction(db: NodeDB) -> float:
    """§6.1: fraction of HELLO-able peers useless to the Mainnet — they
    either do not run the eth subprotocol or run it on another chain."""
    useless = 0
    total = 0
    for entry in db:
        if not entry.got_hello:
            continue
        total += 1
        if entry.primary_service() != "eth":
            useless += 1
        elif entry.got_status and not entry.is_mainnet:
            useless += 1
        elif entry.dao_side == "opposes":
            useless += 1
    return useless / max(total, 1)
