"""Node freshness (Figure 14, §7.3).

Freshness = how far each Mainnet peer's STATUS best block sits behind the
chain head during the analysis window.  The paper finds 32.7% of nodes
stale (too far behind to validate/propagate new transactions) and 141 nodes
stuck at exactly block 4,370,001 — the first post-Byzantium block — because
their clients cannot validate past the hard fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.forks import BYZANTIUM_BLOCK
from repro.nodefinder.database import NodeDB

#: A node more than this many blocks behind head is stale (~2 hours of
#: blocks; beyond any normal sync lag).
STALE_LAG_BLOCKS = 500


@dataclass
class FreshnessReport:
    """Figure 14 aggregates."""

    total: int = 0
    stale: int = 0
    stuck_at_byzantium: int = 0
    lags: list = field(default_factory=list)
    cdf_points: list = field(default_factory=list)       # (lag blocks, cdf)

    @property
    def stale_fraction(self) -> float:
        return self.stale / max(self.total, 1)


def freshness_cdf(
    db: NodeDB,
    head_height: int,
    stale_lag: int = STALE_LAG_BLOCKS,
) -> FreshnessReport:
    """Compute the freshness CDF for Mainnet nodes against ``head_height``."""
    report = FreshnessReport()
    for entry in db.mainnet_nodes():
        if entry.best_block is None:
            continue
        report.total += 1
        # lag against the head at the moment the STATUS was recorded, when
        # available; a later head would misread crawl age as staleness
        reference_head = entry.head_at_status or head_height
        lag = max(0, reference_head - entry.best_block)
        report.lags.append(lag)
        if lag > stale_lag:
            report.stale += 1
        if entry.best_block == BYZANTIUM_BLOCK + 1:
            report.stuck_at_byzantium += 1
    report.lags.sort()
    if report.lags:
        # CDF evaluated on a log-ish grid of lag values
        grid = [0, 1, 10, 50, 100, 500, 1_000, 10_000, 100_000, 1_000_000, 5_000_000]
        import bisect

        total = len(report.lags)
        report.cdf_points = [
            (lag, bisect.bisect_right(report.lags, lag) / total) for lag in grid
        ]
    return report
