"""Figure 10: Geth version populations over time (§6.2).

Paper shape: when a new stable version ships, its population rises
sharply while the previous version's declines; old versions decay slowly
(68.3% of nodes still ran something older than 2 iterations on the last
day; v1.7.x retained ~1K nodes for months).

We regenerate the series from the world's ground truth: the release
calendar plus per-node update behaviour, asking each Mainnet node what
client string it reports on each day.
"""

from collections import Counter

from conftest import bench_profile, emit

from repro.analysis.clients import parse_client_id
from repro.render import format_table
from repro.simnet.releases import GETH_RELEASES


def version_series(world, days: float, step: float = 1.0):
    """Per-day version counts over the whole Geth Mainnet population."""
    builder = world.builder
    geth_nodes = [
        node.spec
        for node in world.nodes.values()
        if node.spec.client_family == "geth" and node.spec.is_mainnet
    ]
    series = {}
    day = 0.0
    # the last arrival/departure boundary is at `days`; sample strictly inside
    while day <= days - 1.0:
        counts = Counter()
        for spec in geth_nodes:
            if not spec.is_online(day):
                continue
            info = parse_client_id(builder.client_string_at(spec, day))
            counts[info.version_string] += 1
        series[round(day, 1)] = counts
        day += step
    return series


def test_fig10_version_adoption(benchmark, paper_crawl):
    _, days, _, _ = bench_profile()
    series = benchmark.pedantic(
        version_series, args=(paper_crawl.world, days), rounds=1, iterations=1
    )
    versions = sorted(
        {version for counts in series.values() for version in counts},
        key=lambda v: tuple(int(x) for x in v.lstrip("v").split(".")),
    )
    top = [v for v in versions if any(series[d].get(v, 0) > 3 for d in series)][-6:]
    rows = [
        [f"day {day:.0f}"] + [series[day].get(version, 0) for version in top]
        for day in sorted(series)
    ]
    emit(
        "fig10_version_adoption",
        format_table("Figure 10 — Geth version populations over time",
                     ["day"] + top, rows),
    )
    # releases inside the window gain population after their release day
    in_window = [r for r in GETH_RELEASES if 0 < r.day < days - 1 and r.stable]
    first_day, last_day = min(series), max(series)
    for release in in_window:
        before = series[first_day].get(release.version, 0)
        after = series[last_day].get(release.version, 0)
        assert after >= before, f"{release.version} population must not shrink"
    # total population is roughly conserved (updates move nodes, not remove)
    total_first = sum(series[first_day].values())
    total_last = sum(series[last_day].values())
    assert total_last > 0.5 * total_first
    # old versions persist: something below the newest 2 releases remains
    newest = {release.version for release in GETH_RELEASES[-2:]}
    old_population = sum(
        count for version, count in series[last_day].items() if version not in newest
    )
    assert old_population > 0.4 * total_last  # paper: 68.3% older than 2 iterations
