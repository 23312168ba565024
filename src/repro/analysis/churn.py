"""Churn and session analysis (§7.3, related work §9).

The paper attributes the stale one-third of Mainnet partly to "the
network's churn rate" and compares against the file-sharing measurements of
Saroiu et al. (Napster/Gnutella median session ~60 minutes) and Pouwelse et
al. (BitTorrent).  NodeFinder's 30-minute static re-dials give a
longitudinal presence signal per node; this module turns it into the
standard churn quantities: session-length distribution, daily churn rate,
and lifetime CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nodefinder.database import NodeDB
from repro.units import SECONDS_PER_DAY, SECONDS_PER_HOUR

#: Sessions are resolved no finer than the static re-dial interval.
PROBE_INTERVAL = 30 * 60.0


@dataclass
class ChurnReport:
    """Churn quantities over one crawl."""

    total_nodes: int = 0
    #: fraction of nodes seen on day d that are gone by day d+1
    daily_churn_rates: list = field(default_factory=list)  # (day, rate)
    #: observed node lifetimes (first to last response), hours
    lifetimes_hours: list = field(default_factory=list)
    #: nodes present on every probed day (the stable core)
    always_on: int = 0

    @property
    def mean_daily_churn(self) -> float:
        rates = [rate for _, rate in self.daily_churn_rates]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def median_lifetime_hours(self) -> float:
        if not self.lifetimes_hours:
            return 0.0
        ordered = sorted(self.lifetimes_hours)
        return ordered[len(ordered) // 2]

    def lifetime_cdf(self, points_hours: list[float]) -> list[tuple[float, float]]:
        ordered = sorted(self.lifetimes_hours)
        total = len(ordered)
        if not total:
            return [(x, 0.0) for x in points_hours]
        import bisect

        return [
            (x, bisect.bisect_right(ordered, x) / total) for x in points_hours
        ]


def churn_report(db: NodeDB, total_days: float) -> ChurnReport:
    """Compute churn over the crawl window from per-node sighting spans.

    A node "present on day d" responded at least once that day (we know
    responses at static-dial resolution); the daily churn rate is the share
    of day-d nodes absent on day d+1 — the quantity Saroiu et al. report
    for Napster/Gnutella.
    """
    report = ChurnReport()
    days = int(total_days)
    present: list[set] = [set() for _ in range(days + 1)]
    for entry in db:
        if entry.last_success < 0:
            continue
        report.total_nodes += 1
        report.lifetimes_hours.append(entry.active_span / SECONDS_PER_HOUR)
        first_day = int(entry.first_seen // SECONDS_PER_DAY)
        last_day = int(entry.last_seen // SECONDS_PER_DAY)
        # NodeFinder re-probes every 30 minutes, so a span covers its days
        for day in range(first_day, min(last_day, days) + 1):
            present[day].add(entry.node_id)
        if first_day == 0 and last_day >= days - 1:
            report.always_on += 1
    for day in range(days):
        today, tomorrow = present[day], present[day + 1]
        if not today:
            continue
        churned = len(today - tomorrow) / len(today)
        report.daily_churn_rates.append((day, churned))
    return report
