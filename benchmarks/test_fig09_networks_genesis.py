"""Figure 9: Ethereum networks and genesis hashes (§6.1).

Paper shape: 4,076 distinct network IDs and 18,829 genesis hashes across
323,584 STATUS nodes; the Mainnet (id 1 + d4e567... genesis + DAO
support) holds the majority; Musicoin/Pirl/Ubiq sit near 1-1.5% each;
1,402 networks have a single peer; 10,497 non-Mainnet peers advertise the
Mainnet genesis.
"""

from conftest import emit

from repro.analysis.ecosystem import network_stats
from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_fig09_networks_and_genesis(benchmark, paper_crawl):
    stats = benchmark(network_stats, paper_crawl.db)
    scale = reference.NODES_WITH_ETH_STATUS / max(stats.status_nodes, 1)
    rows = [
        ("STATUS nodes", stats.status_nodes, reference.NODES_WITH_ETH_STATUS),
        ("distinct network ids", stats.distinct_network_ids,
         reference.DISTINCT_NETWORK_IDS),
        ("distinct genesis hashes", stats.distinct_genesis_hashes,
         reference.DISTINCT_GENESIS_HASHES),
        ("single-peer networks", stats.single_peer_networks,
         reference.SINGLE_PEER_NETWORKS),
        ("fake-Mainnet-genesis peers", stats.fake_mainnet_peers,
         reference.FAKE_MAINNET_GENESIS_PEERS),
        ("Mainnet nodes", stats.mainnet_nodes, "~52-55% of STATUS"),
        ("Classic nodes", stats.classic_nodes, "-"),
    ]
    lines = [
        format_table("Figure 9 — networks × genesis hashes",
                     ["quantity", "measured", "paper"], rows),
        side_by_side(stats.mainnet_share, 0.55, "Mainnet share of STATUS nodes"),
        f"scale factor vs paper: ~{scale:.0f}x",
    ]
    emit("fig09_networks_genesis", "\n".join(lines))
    # structural facts the paper stresses
    assert stats.distinct_genesis_hashes > stats.distinct_network_ids
    assert stats.single_peer_networks > 0.2 * stats.distinct_network_ids
    assert stats.fake_mainnet_peers > 0
    assert 0.45 < stats.mainnet_share < 0.65
    # Mainnet is the single largest network
    assert stats.mainnet_nodes > 5 * stats.classic_nodes
