"""Table 6: P2P network size comparison (§7.1).

Paper shape: NodeFinder sees 15,454 Ethereum nodes in 24h — 2.3-3.3x more
than Ethernodes (4,717) or Gencer et al. (4,302); bigger than Bitcoin's
reachable set (10,454); far smaller than 2002 Gnutella (62,586).
"""

from conftest import emit

from repro.analysis.comparison import build_table6, mainnet_snapshot_ids
from repro.render import format_table
from repro.datasets import reference
from repro.datasets.p2p_history import NETWORK_SIZES


def test_tab06_network_sizes(benchmark, paper_crawl, ethernodes_snapshot):
    reachable, unreachable = benchmark(
        mainnet_snapshot_ids,
        paper_crawl.db,
        paper_crawl.snapshot_start,
        paper_crawl.snapshot_end,
    )
    ours = len(reachable | unreachable)
    ethernodes = len(ethernodes_snapshot.verified_mainnet_ids())
    # map simulated counts to paper scale via the NodeFinder row
    scale = reference.NODEFINDER_MAINNET_24H / max(ours, 1)
    rows = build_table6(ours, ethernodes, scale_factor=scale)
    emit(
        "tab06_network_sizes",
        format_table(
            f"Table 6 — network sizes (sim scale x{scale:.0f} applied to measured rows)",
            ["network", "date", "nodes"],
            rows,
        )
        + f"\nraw measured: NodeFinder {ours}, Ethernodes {ethernodes}",
    )
    # who wins and by what factor: NodeFinder over Ethernodes, 2-5x
    assert 2.0 < ours / max(ethernodes, 1) < 6.0  # paper: 3.3x
    # orderings from the paper hold after scaling
    sizes = {name: count for name, _, count in rows}
    assert sizes["Ethereum (NodeFinder) [measured]"] > sizes["Bitcoin (Bitnodes)"]
    assert sizes["Gnutella (SNAP)"] > sizes["Ethereum (NodeFinder) [measured]"]
    assert sizes["Ethereum (Ethernodes) [measured]"] < sizes["Bitcoin (Bitnodes)"]
    # reference table intact
    assert dict((n, s) for n, _, s in NETWORK_SIZES)["Bitcoin (Bitnodes)"] == 10_454
