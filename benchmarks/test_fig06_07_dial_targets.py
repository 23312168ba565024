"""Figures 6-7: unique nodes dynamic-dialed and responding, per day (§5.2).

Paper shape: 34,730 unique nodes dialed per day, 10,919 responding — a
steady daily count once the crawl warms up, with the responding series
much flatter than the dialed one.
"""

from conftest import bench_profile, emit

from repro.render import format_series, side_by_side
from repro.analysis.validation import build_validation_report
from repro.datasets import reference


def test_fig06_07_unique_dial_targets(paper_crawl):
    report = build_validation_report(paper_crawl.stats)
    nodes, days, instances, _ = bench_profile()
    # scale: unique nodes per day relative to network size
    ours_dialed_share = report.dialed_daily_average / nodes
    paper_dialed_share = reference.UNIQUE_NODES_DIALED_PER_DAY / 50_000.0
    lines = [
        format_series("Figure 6 — unique nodes dynamic-dialed/day",
                      report.unique_dialed_per_day),
        format_series("Figure 7 — unique nodes responding/day",
                      report.unique_responded_per_day),
        side_by_side(ours_dialed_share, paper_dialed_share,
                     "dialed-per-day / network-size"),
        f"paper: {reference.UNIQUE_NODES_DIALED_PER_DAY:,} dialed, "
        f"{reference.UNIQUE_NODES_RESPONDED_PER_DAY:,} responded per day "
        f"(31% response rate)",
        f"ours: {report.dialed_daily_average:,.0f} dialed, "
        f"{report.responded_daily_average:,.0f} responded per day",
    ]
    emit("fig06_07_dial_targets", "\n".join(lines))
    assert report.dialed_daily_average > 0
    assert report.responded_daily_average > 0
    # responders are a strict subset of dialed nodes
    assert report.responded_daily_average < report.dialed_daily_average
    # post-warm-up daily dialed counts are steady (within 3x of each other)
    stable = [v for _, v in report.unique_dialed_per_day[1:-1]]
    if len(stable) >= 2:
        assert max(stable) < 3 * max(min(stable), 1)
