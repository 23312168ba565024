"""Geography and latency analyses (Figures 12-13, §7.2).

The crawl database does not itself carry countries — like the paper we
"geolocate" node IPs, here by asking the world's geo model (our stand-in
for a GeoIP database), then histogram countries and ASes and build the
latency CDF from the smoothed RTTs NodeFinder logged per connection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.datasets.p2p_history import (
    empirical_cdf,
    latency_cdf_bitnodes,
    latency_cdf_gnutella,
)
from repro.nodefinder.database import NodeDB, NodeEntry
from repro.simnet.world import SimWorld


@dataclass
class GeoReport:
    """Figure 12 (+AS table) aggregates."""

    country_shares: list = field(default_factory=list)   # (country, share)
    as_shares: list = field(default_factory=list)        # (asn, share)
    top8_as_fraction: float = 0.0
    cloud_fraction: float = 0.0
    total: int = 0


def _ip_location_index(world: SimWorld) -> dict:
    index = {}
    for node in world.nodes.values():
        index[node.spec.ip] = node.spec.location
    for factory in world.factories:
        index[factory.spec.ip] = factory.spec.location
    return index


def geolocate(world: SimWorld, entries: Iterable[NodeEntry]) -> GeoReport:
    """Build the geography report for a set of crawled nodes."""
    index = _ip_location_index(world)
    countries: Counter = Counter()
    ases: Counter = Counter()
    cloud = 0
    total = 0
    for entry in entries:
        location = next(
            (index[ip] for ip in entry.ips if ip in index), None
        )
        if location is None:
            continue
        total += 1
        countries[location.country] += 1
        ases[location.asn] += 1
        if location.is_cloud:
            cloud += 1
    report = GeoReport(total=total)
    report.country_shares = [
        (country, count / max(total, 1)) for country, count in countries.most_common()
    ]
    report.as_shares = [
        (asn, count / max(total, 1)) for asn, count in ases.most_common()
    ]
    report.top8_as_fraction = sum(share for _, share in report.as_shares[:8])
    report.cloud_fraction = cloud / max(total, 1)
    return report


@dataclass
class LatencyReport:
    """Figure 13: our latency CDF beside the comparison networks."""

    points: list = field(default_factory=list)         # x values, seconds
    ethereum_cdf: list = field(default_factory=list)
    gnutella_cdf: list = field(default_factory=list)
    bitcoin_cdf: list = field(default_factory=list)
    median: float = 0.0

    def rows(self) -> list[tuple[float, float, float, float]]:
        return list(
            zip(self.points, self.ethereum_cdf, self.gnutella_cdf, self.bitcoin_cdf)
        )


DEFAULT_LATENCY_POINTS = [
    0.01, 0.02, 0.03, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 2.0
]


def latency_report(db: NodeDB) -> LatencyReport:
    """CDF of median per-node smoothed RTTs, vs the cited networks, at
    ``DEFAULT_LATENCY_POINTS``."""
    points = DEFAULT_LATENCY_POINTS
    samples = [
        entry.median_latency
        for entry in db.mainnet_nodes()
        if entry.median_latency is not None
    ]
    report = LatencyReport(points=points)
    report.ethereum_cdf = empirical_cdf(samples, points)
    report.gnutella_cdf = [latency_cdf_gnutella(x) for x in points]
    report.bitcoin_cdf = [latency_cdf_bitnodes(x) for x in points]
    if samples:
        ordered = sorted(samples)
        report.median = ordered[len(ordered) // 2]
    return report
