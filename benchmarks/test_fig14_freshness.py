"""Figure 14: node freshness CDF (§7.3).

Paper shape: ~32.7% of Mainnet nodes are stale (best block too far behind
head to validate/propagate), and 141 nodes sit at exactly block 4,370,001
— the first post-Byzantium block — stranded by pre-fork clients.
"""

from conftest import emit

from repro.analysis.freshness import freshness_cdf
from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_fig14_freshness(paper_crawl):
    head = paper_crawl.world.mainnet_height
    report = freshness_cdf(paper_crawl.db, head)
    rows = [(f"{lag:,} blocks behind", f"{cdf:.3f}") for lag, cdf in report.cdf_points]
    lines = [
        format_table(f"Figure 14 — freshness CDF (head={head:,})",
                     ["lag", "CDF"], rows),
        side_by_side(report.stale_fraction, reference.STALE_NODE_FRACTION,
                     "stale fraction"),
        f"stuck at block {reference.BYZANTIUM_STUCK_BLOCK:,}: "
        f"{report.stuck_at_byzantium} nodes "
        f"(paper: {reference.NODES_STUCK_AT_BYZANTIUM} at 30x scale)",
    ]
    emit("fig14_freshness", "\n".join(lines))
    assert report.total > 100
    # roughly one third stale
    assert 0.22 < report.stale_fraction < 0.45
    # the Byzantium-stuck cluster exists
    assert report.stuck_at_byzantium >= 1
    # CDF structure: most non-stale nodes are within ~10 blocks of head
    cdf = dict(report.cdf_points)
    assert cdf[10] > 0.5
    assert cdf[5_000_000] == 1.0
    # monotone
    values = [v for _, v in report.cdf_points]
    assert all(a <= b for a, b in zip(values, values[1:]))
