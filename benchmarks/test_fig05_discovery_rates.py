"""Figure 5: discovery and dynamic-dial attempts per day (§5.2).

Paper shape: the fleet makes discovery attempts at a steady rate
(219,180/day; ~304/hour/instance) with dynamic-dial attempts proportional
to discovery at a visibly constant factor.  Our crawl is scaled (fewer
instances, a 30-min dial-history guard instead of Geth's 30s), so we
compare rates per instance-hour and the stability of the ratio.
"""

from conftest import bench_profile, emit

from repro.render import format_series, side_by_side
from repro.analysis.validation import build_validation_report
from repro.datasets import reference


def test_fig05_discovery_and_dial_rates(paper_crawl):
    report = build_validation_report(paper_crawl.stats)
    _, days, instances, interval = bench_profile()
    per_hour_per_instance = report.discovery_daily_average / instances / 24
    expected_per_hour = 3600 / interval
    lines = [
        format_series(
            "Figure 5a — discovery attempts/day (fleet)", report.discovery_per_day
        ),
        format_series(
            "Figure 5b — dynamic-dial attempts/day (fleet)", report.dials_per_day
        ),
        side_by_side(
            per_hour_per_instance,
            reference.DISCOVERY_ATTEMPTS_PER_HOUR_PER_INSTANCE,
            "discovery/hour/instance (ours paced at "
            f"{expected_per_hour:.0f}/h vs paper's 304/h)",
        ),
        f"dials:discovery ratio stability (CV): {report.ratio_stability():.3f} "
        "(paper: 'visibly constant')",
        f"scale note: paper fleet = 30 instances, {reference.DISCOVERY_ATTEMPTS_PER_DAY:,} "
        f"discoveries/day and {reference.DYNAMIC_DIAL_ATTEMPTS_PER_DAY:,} dial attempts/day",
    ]
    emit("fig05_discovery_rates", "\n".join(lines))
    # steady discovery: every stable day within 25% of the mean
    stable = report.discovery_per_day[1:-1]
    mean = sum(v for _, v in stable) / max(len(stable), 1)
    for _, value in stable:
        assert abs(value - mean) / mean < 0.25
    # the ratio of dials to discoveries stays roughly constant (Fig 5 claim)
    assert report.ratio_stability() < 0.5
    # dials exceed discoveries (each lookup feeds multiple dials)
    assert report.dial_daily_average > report.discovery_daily_average
