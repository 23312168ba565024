"""Client-string parsing and the client/version analyses (Tables 4-5, Fig 10).

DEVp2p client IDs look like ``Geth/v1.8.11-stable-dea1ce05/linux-amd64/go1.10.2``
or ``Parity/v1.10.6-stable/x86_64-linux-gnu/rustc1.26.0``; the parser
extracts family, version tuple, and release channel, tolerating the many
ad-hoc formats of minor clients.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.nodefinder.database import NodeEntry

_VERSION_RE = re.compile(r"v?(\d+)\.(\d+)(?:\.(\d+))?")


@dataclass(frozen=True)
class ClientInfo:
    """Parsed client identity."""

    family: str          # canonical lowercase family, e.g. 'geth'
    raw_family: str
    version: Optional[tuple]  # (major, minor, patch) or None
    channel: str         # stable | beta | rc | nightly | unknown
    platform: Optional[str]

    @property
    def version_string(self) -> str:
        if self.version is None:
            return "?"
        return "v" + ".".join(str(part) for part in self.version)

    @property
    def is_stable(self) -> bool:
        return self.channel == "stable"


_FAMILY_ALIASES = {
    "geth": "geth",
    "go-ethereum": "geth",
    "parity": "parity",
    "parity-ethereum": "parity",
    "ethereumjs-devp2p": "ethereumjs",
    "ethereumjs": "ethereumjs",
}


def parse_client_id(client_id: str) -> ClientInfo:
    """Parse a DEVp2p HELLO client string; never raises."""
    if not client_id:
        return ClientInfo("unknown", "", None, "unknown", None)
    parts = client_id.split("/")
    raw_family = parts[0].strip()
    family = _FAMILY_ALIASES.get(raw_family.lower(), raw_family.lower())
    version: Optional[tuple] = None
    channel = "unknown"
    for part in parts[1:3]:
        match = _VERSION_RE.search(part)
        if match and version is None:
            version = tuple(int(group or 0) for group in match.groups())
        lowered = part.lower()
        for candidate in ("stable", "beta", "nightly", "unstable"):
            if candidate in lowered:
                channel = candidate
        if re.search(r"-rc\d*", lowered):
            channel = "rc"
    platform = None
    for part in parts[1:]:
        if any(os_name in part.lower() for os_name in ("linux", "windows", "darwin", "freebsd", "x86_64")):
            platform = part
            break
    # Geth omits the channel for some builds; version strings generated by
    # its release pipeline are stable unless marked otherwise
    if channel == "unknown" and family == "geth" and version is not None:
        channel = "stable"
    return ClientInfo(family, raw_family, version, channel, platform)


def client_share_table(entries: Iterable[NodeEntry]) -> list[tuple[str, int, float]]:
    """Table 4: (family, count, share) over Mainnet nodes, descending."""
    counts: Counter = Counter()
    total = 0
    for entry in entries:
        if not entry.client_id:
            continue
        counts[parse_client_id(entry.client_id).family] += 1
        total += 1
    rows = []
    for family, count in counts.most_common():
        rows.append((family, count, count / max(total, 1)))
    return rows


def version_table(
    entries: Iterable[NodeEntry], family: str, top: int = 10
) -> list[tuple[str, str, int, float]]:
    """Table 5: (version, channel, count, share) for one client family."""
    counts: Counter = Counter()
    total = 0
    for entry in entries:
        if not entry.client_id:
            continue
        info = parse_client_id(entry.client_id)
        if info.family != family:
            continue
        counts[(info.version_string, info.channel)] += 1
        total += 1
    rows = []
    for (version, channel), count in counts.most_common(top):
        rows.append((version, channel, count, count / max(total, 1)))
    return rows


def stable_fraction(entries: Iterable[NodeEntry], family: str) -> float:
    """Fraction of a family's nodes on stable builds (Table 5 headline)."""
    stable = 0
    total = 0
    for entry in entries:
        if not entry.client_id:
            continue
        info = parse_client_id(entry.client_id)
        if info.family != family:
            continue
        total += 1
        if info.is_stable:
            stable += 1
    return stable / max(total, 1)


def pre_byzantium_fraction(entries: Iterable[NodeEntry]) -> float:
    """§6.2: share of Geth nodes below v1.7.1 (Byzantium-incompatible)."""
    old = 0
    total = 0
    for entry in entries:
        if not entry.client_id:
            continue
        info = parse_client_id(entry.client_id)
        if info.family != "geth" or info.version is None:
            continue
        total += 1
        if info.version < (1, 7, 1):
            old += 1
    return old / max(total, 1)
