"""Geography, autonomous systems, and latency.

The paper locates Mainnet nodes with a GeoIP database (§7.2, Figures 12-13):
43.2% in the US, 12.9% in China, a cloud-heavy AS mix where the top 8 ASes
(Amazon, Alibaba, Digital Ocean, OVH, Hetzner, Google, ...) hold 44.8% of
nodes.  We have no GeoIP database or live addresses, so the substitution
runs the *other* way: nodes are assigned countries/ASes from the published
marginals, and the latency model gives each (region, region) pair a
plausible RTT so the Figure 13 latency CDF has the right shape.
"""

from __future__ import annotations

import bisect
import ipaddress
import itertools
import random
import zlib
from dataclasses import dataclass

#: Country share of Mainnet nodes (Figure 12) — (ISO code, share, region).
COUNTRY_DISTRIBUTION: list[tuple[str, float, str]] = [
    ("US", 0.432, "na"),
    ("CN", 0.129, "asia"),
    ("DE", 0.062, "eu"),
    ("RU", 0.035, "eu"),
    ("CA", 0.031, "na"),
    ("GB", 0.030, "eu"),
    ("KR", 0.028, "asia"),
    ("FR", 0.026, "eu"),
    ("SG", 0.024, "asia"),
    ("JP", 0.022, "asia"),
    ("NL", 0.021, "eu"),
    ("AU", 0.015, "oceania"),
    ("UA", 0.013, "eu"),
    ("IN", 0.012, "asia"),
    ("BR", 0.011, "sa"),
    ("PL", 0.010, "eu"),
    ("HK", 0.010, "asia"),
    ("CH", 0.009, "eu"),
    ("SE", 0.008, "eu"),
    ("IT", 0.008, "eu"),
    ("FI", 0.007, "eu"),
    ("ES", 0.006, "eu"),
    ("TW", 0.006, "asia"),
    ("CZ", 0.005, "eu"),
    ("OTHER", 0.040, "eu"),
]

#: AS share of Mainnet nodes (§7.2) — (AS name, share, is_cloud).
#: The named top-8 clouds total ≈ 44.8%.
AS_DISTRIBUTION: list[tuple[str, float, bool]] = [
    ("Amazon.com (AS16509)", 0.140, True),
    ("Alibaba (AS45102)", 0.090, True),
    ("DigitalOcean (AS14061)", 0.065, True),
    ("OVH (AS16276)", 0.045, True),
    ("Hetzner (AS24940)", 0.040, True),
    ("Google Cloud (AS15169)", 0.035, True),
    ("Tencent Cloud (AS45090)", 0.018, True),
    ("Microsoft Azure (AS8075)", 0.015, True),
    ("Comcast (AS7922)", 0.020, False),
    ("China Telecom (AS4134)", 0.018, False),
    ("Deutsche Telekom (AS3320)", 0.012, False),
    ("Verizon (AS701)", 0.010, False),
    ("China Unicom (AS4837)", 0.010, False),
    ("Charter (AS20115)", 0.008, False),
    ("Korea Telecom (AS4766)", 0.008, False),
]
_AS_TAIL_COUNT = 400  # small residential/hosting ASes sharing the remainder

#: One-way base latencies between regions, seconds (vantage point: US).
REGION_RTT: dict[tuple[str, str], float] = {
    ("na", "na"): 0.040,
    ("na", "eu"): 0.100,
    ("na", "asia"): 0.170,
    ("na", "sa"): 0.140,
    ("na", "oceania"): 0.190,
    ("eu", "eu"): 0.030,
    ("eu", "asia"): 0.200,
    ("eu", "sa"): 0.200,
    ("eu", "oceania"): 0.280,
    ("asia", "asia"): 0.060,
    ("asia", "sa"): 0.320,
    ("asia", "oceania"): 0.120,
    ("sa", "sa"): 0.040,
    ("sa", "oceania"): 0.310,
    ("oceania", "oceania"): 0.030,
}


@dataclass(frozen=True)
class Location:
    """A node's network location."""

    country: str
    region: str
    asn: str
    is_cloud: bool
    ip: str


class _WeightedPicker:
    """O(log n) weighted choice over a fixed table."""

    def __init__(self, weights: list[float]) -> None:
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def pick(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)


class GeoModel:
    """Assigns locations and computes pairwise RTTs."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._country_picker = _WeightedPicker(
            [share for _, share, _ in COUNTRY_DISTRIBUTION]
        )
        named_total = sum(share for _, share, _ in AS_DISTRIBUTION)
        self._as_picker = _WeightedPicker(
            [share for _, share, _ in AS_DISTRIBUTION] + [1.0 - named_total]
        )
        self._ip_space: dict[str, int] = {}

    def assign(self) -> Location:
        """Draw a location from the paper's marginals."""
        country, _, region = COUNTRY_DISTRIBUTION[self._country_picker.pick(self._rng)]
        as_index = self._as_picker.pick(self._rng)
        if as_index < len(AS_DISTRIBUTION):
            asn, _, is_cloud = AS_DISTRIBUTION[as_index]
        else:
            asn = f"AS-tail-{self._rng.randrange(_AS_TAIL_COUNT)}"
            is_cloud = self._rng.random() < 0.3
        return Location(
            country=country,
            region=region,
            asn=asn,
            is_cloud=is_cloud,
            ip=self.fresh_ip(country),
        )

    def fresh_ip(self, country: str) -> str:
        """A unique synthetic IPv4 address, loosely clustered by country.

        Addresses stay inside a per-country block (first/second octet) but
        consecutive assignments rotate through distinct /24s: real
        populations almost never stack many nodes into one /24 (Geth's
        ``tableIPLimit`` counts on it), so only a deliberate Sybil swarm
        concentrates there — honest worlds must not look like one.
        """
        index = self._ip_space.get(country, 0)
        self._ip_space[country] = index + 1
        block = zlib.crc32(country.encode()) % 200 + 16
        slot, third = divmod(index, 223)
        high, fourth = divmod(slot, 254)
        second = (high * 7 + zlib.crc32(country.encode()) // 251) % 223 + 1
        return str(
            ipaddress.IPv4Address(
                (block << 24) | (second << 16) | ((third + 1) << 8) | (fourth + 1)
            )
        )

    def rtt(self, a: Location, b: Location, rng: random.Random | None = None) -> float:
        """Smoothed round-trip time between two locations, seconds.

        Base region RTT plus lognormal jitter; residential last miles add
        a few tens of milliseconds over cloud datacenters.
        """
        rng = rng or self._rng
        key = (a.region, b.region)
        base = REGION_RTT.get(key) or REGION_RTT.get((b.region, a.region), 0.150)
        last_mile = 0.0
        if not a.is_cloud:
            last_mile += 0.010 + rng.random() * 0.030
        if not b.is_cloud:
            last_mile += 0.010 + rng.random() * 0.030
        jitter = rng.lognormvariate(-4.0, 0.8)  # median ~18ms heavy tail
        return base + last_mile + jitter

    def rtt_batch(
        self,
        origin: Location,
        destinations: list[Location],
        rng: random.Random | None = None,
    ) -> list[float]:
        """RTTs from one origin to many destinations.

        Draw-for-draw identical to calling :meth:`rtt` once per
        destination in order — the world's deliver loop batches a whole
        tick's latencies through one call without moving the RNG stream,
        paying the method/lookup overhead once instead of per node.
        """
        rng = rng or self._rng
        origin_region = origin.region
        origin_cloud = origin.is_cloud
        region_rtt = REGION_RTT
        rand = rng.random
        lognorm = rng.lognormvariate
        out: list[float] = []
        append = out.append
        for dest in destinations:
            base = region_rtt.get((origin_region, dest.region)) or region_rtt.get(
                (dest.region, origin_region), 0.150
            )
            last_mile = 0.0
            if not origin_cloud:
                last_mile += 0.010 + rand() * 0.030
            if not dest.is_cloud:
                last_mile += 0.010 + rand() * 0.030
            append(base + last_mile + lognorm(-4.0, 0.8))
        return out
