"""Table 2: NodeFinder vs Ethernodes over a 24-hour snapshot (§5.3).

Paper shape: NodeFinder finds ~3.6x the Mainnet nodes Ethernodes'
verified list carries (16,831 vs 4,717), covers ~82% of Ethernodes' set,
and about two thirds of NodeFinder's nodes are unreachable — visible only
through incoming connections.  Ethernodes' raw Mainnet page is ~4x larger
than its genesis-verified subset.
"""

from conftest import emit

from repro.analysis.comparison import build_table2
from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_tab02_ethernodes_overlap(benchmark, paper_crawl, ethernodes_snapshot):
    table = benchmark(
        build_table2,
        paper_crawl.db,
        ethernodes_snapshot,
        paper_crawl.snapshot_start,
        paper_crawl.snapshot_end,
    )
    paper_rows = {
        "EN listed (Mainnet page)": reference.ETHERNODES_MAINNET_PAGE_LISTED,
        "EN verified Mainnet genesis": reference.ETHERNODES_MAINNET_VERIFIED,
        "NF Mainnet nodes": reference.NODEFINDER_MAINNET_24H,
        "NF reachable (NFR)": reference.NODEFINDER_REACHABLE,
        "NF unreachable (NFU)": reference.NODEFINDER_UNREACHABLE,
        "EN ∩ NF": reference.OVERLAP_BOTH,
        "EN ∩ NFR": reference.OVERLAP_REACHABLE,
        "EN ∩ NFU": reference.OVERLAP_UNREACHABLE,
        "EN only": reference.ETHERNODES_ONLY,
    }
    rows = [
        (label, measured, paper_rows.get(label, "-"))
        for label, measured in table.rows()
    ]
    lines = [
        format_table("Table 2 — NodeFinder vs Ethernodes (24h)", ["set", "measured", "paper"], rows),
        side_by_side(table.advantage_factor,
                     reference.NODEFINDER_MAINNET_24H / reference.ETHERNODES_MAINNET_VERIFIED,
                     "NodeFinder / Ethernodes advantage"),
        side_by_side(table.coverage_of_ethernodes,
                     reference.ETHERNODES_COVERAGE_OF_OVERLAP,
                     "share of Ethernodes' set NodeFinder also saw"),
    ]
    emit("tab02_ethernodes_overlap", "\n".join(lines))
    # who wins, and by roughly what factor
    assert table.nodefinder_total > 2 * table.ethernodes_verified
    # the page is much larger than the verified subset (§5.3's 20,437 vs
    # 4,717 — our custom-chain tail is thinner at sim scale, so the factor
    # is smaller but the direction must hold clearly)
    assert table.ethernodes_listed > 1.2 * table.ethernodes_verified
    # NodeFinder's advantage comes from unreachable nodes
    assert table.nodefinder_unreachable > table.nodefinder_reachable
    # overlap covers most of Ethernodes' verified set
    assert table.coverage_of_ethernodes > 0.6
    # consistency of the set algebra
    assert table.overlap == table.overlap_reachable + table.overlap_unreachable
    assert table.ethernodes_only == table.ethernodes_verified - table.overlap
