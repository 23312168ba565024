"""The 2018 Geth/Parity release calendar and version-adoption model.

Section 6.2 and Figure 10 hinge on release dynamics: Geth ships a single
stable line whose adoption curves rise sharply on release day; Parity ships
weekly at mixed stable/beta states, spreading its population thin.  Days are
measured from the paper's collection start, 2018-04-18 (day 0); the window
ends 2018-07-08 (day 81).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: Length of the paper's measurement window, days.
MEASUREMENT_DAYS = 82


@dataclass(frozen=True)
class Release:
    """One client release."""

    version: str
    day: float  # days since 2018-04-18; negative = before the window
    stable: bool = True


#: Geth stable releases around the window (real calendar, to the day).
GETH_RELEASES: list[Release] = [
    Release("v1.7.1", -190, True),   # 2017-10-10, first Byzantium-ready
    Release("v1.7.2", -185, True),
    Release("v1.7.3", -127, True),   # 2017-12-12, NodeFinder's base
    Release("v1.8.0", -63, True),    # 2018-02-14
    Release("v1.8.1", -58, True),
    Release("v1.8.2", -44, True),
    Release("v1.8.3", -25, True),
    Release("v1.8.4", -2, True),     # 2018-04-16
    Release("v1.8.5", -1, False),    # pulled next day (deadlock, §6.2)
    Release("v1.8.6", 2, True),      # 2018-04-20
    Release("v1.8.7", 14, True),     # 2018-05-02
    Release("v1.8.8", 26, True),     # 2018-05-14
    Release("v1.8.9", 40, False),    # pulled (deadlock, §6.2)
    Release("v1.8.10", 47, True),    # 2018-06-04
    Release("v1.8.11", 56, True),    # 2018-06-13
    Release("v1.8.12", 78, True),    # 2018-07-05 (0.6% by window end)
]

#: Parity releases: weekly cadence, mixed channels (§6.2).
PARITY_RELEASES: list[Release] = [
    Release("v1.7.9", -160, True),
    Release("v1.7.11", -140, True),
    Release("v1.8.11", -90, True),
    Release("v1.9.5", -50, True),
    Release("v1.9.7", -30, True),
    Release("v1.10.0", -28, False),
    Release("v1.10.1", -14, False),
    Release("v1.10.2", -7, False),
    Release("v1.10.3", 7, True),
    Release("v1.10.4", 21, False),
    Release("v1.10.5", 28, False),
    Release("v1.10.6", 40, True),
    Release("v1.10.7", 54, False),
    Release("v1.10.8", 68, False),
    Release("v1.11.0", 70, False),
    Release("v1.10.9", 80, True),    # 2018-07-07 (0.1% by window end)
]

#: Pre-Byzantium stragglers (§6.2: 3.5% of Geth nodes below v1.7.1).
GETH_LEGACY_VERSIONS = ["v1.6.7", "v1.6.5", "v1.6.1", "v1.5.9", "v1.4.18"]
PARITY_LEGACY_VERSIONS = ["v1.6.10", "v1.0.0", "v1.5.12"]


class VersionAdoptionModel:
    """Assigns each node a version as a function of time.

    Every node gets an *update lag*: how long after a release it upgrades.
    A configurable fraction never updates (pinned to the version current at
    its pin day), and a smaller fraction is stuck on pre-Byzantium legacy
    versions — reproducing both the sharp Figure 10 adoption fronts and the
    long tail of §6.2.
    """

    def __init__(
        self,
        releases: list[Release],
        legacy_versions: list[str],
        stable_only: bool = True,
        never_update_fraction: float = 0.25,
        legacy_fraction: float = 0.035,
        median_lag_days: float = 6.0,
    ) -> None:
        self.releases = sorted(releases, key=lambda release: release.day)
        self.legacy_versions = legacy_versions
        self.stable_only = stable_only
        self.never_update_fraction = never_update_fraction
        self.legacy_fraction = legacy_fraction
        self.median_lag_days = median_lag_days

    def draw_behaviour(self, rng: random.Random) -> dict:
        """Sample a node's update behaviour (stored on the node spec)."""
        roll = rng.random()
        if roll < self.legacy_fraction:
            return {"kind": "legacy", "version": rng.choice(self.legacy_versions)}
        if roll < self.legacy_fraction + self.never_update_fraction:
            # pinned to whatever was current when the node was set up
            return {"kind": "pinned", "pin_day": rng.uniform(-120, 40)}
        # lognormal lag: median ~6 days, heavy tail
        lag = rng.lognormvariate(0, 0.9) * self.median_lag_days
        follows_beta = (not self.stable_only) and rng.random() < 0.5
        return {"kind": "updater", "lag_days": lag, "beta": follows_beta}

    def _eligible(self, beta_ok: bool) -> list[Release]:
        if beta_ok:
            return self.releases
        return [release for release in self.releases if release.stable]

    def version_at(self, behaviour: dict, day: float) -> str:
        """The version string a node with ``behaviour`` runs on ``day``."""
        if behaviour["kind"] == "legacy":
            return behaviour["version"]
        if behaviour["kind"] == "pinned":
            current = self._latest_by(behaviour["pin_day"], beta_ok=False)
            return current.version if current else self.legacy_versions[0]
        lag = behaviour["lag_days"]
        current = self._latest_by(day - lag, beta_ok=behaviour.get("beta", False))
        if current is None:
            return self.legacy_versions[0]
        return current.version

    def _latest_by(self, day: float, beta_ok: bool) -> Optional[Release]:
        latest = None
        for release in self._eligible(beta_ok):
            if release.day <= day:
                latest = release
        return latest


def default_geth_model() -> VersionAdoptionModel:
    return VersionAdoptionModel(
        GETH_RELEASES,
        GETH_LEGACY_VERSIONS,
        stable_only=True,
        never_update_fraction=0.22,
        legacy_fraction=0.035,
        median_lag_days=6.0,
    )


def default_parity_model() -> VersionAdoptionModel:
    # Parity's mixed channels: only 56.2% of nodes on stable builds (Tab. 5)
    return VersionAdoptionModel(
        PARITY_RELEASES,
        PARITY_LEGACY_VERSIONS,
        stable_only=False,
        never_update_fraction=0.30,
        legacy_fraction=0.05,
        median_lag_days=5.0,
    )


def geth_client_string(version: str, rng: random.Random, unstable: bool = False) -> str:
    go_version = rng.choice(["go1.9.2", "go1.10", "go1.10.1", "go1.10.2"])
    platform = rng.choice(
        ["linux-amd64", "linux-amd64", "linux-amd64", "windows-amd64", "darwin-amd64"]
    )
    commit = "%08x" % rng.getrandbits(32)
    if unstable:
        # a master build identifies as the *next* version, channel unstable
        version = _bump_patch(version)
        return f"Geth/{version}-unstable-{commit}/{platform}/{go_version}"
    return f"Geth/{version}-stable-{commit}/{platform}/{go_version}"


def _bump_patch(version: str) -> str:
    parts = version.lstrip("v").split(".")
    parts[-1] = str(int(parts[-1]) + 1)
    return "v" + ".".join(parts)


def parity_client_string(version: str, rng: random.Random) -> str:
    channel = "stable" if rng.random() < 0.6 else "beta"
    rust = rng.choice(["rustc1.24.1", "rustc1.25.0", "rustc1.26.0"])
    return f"Parity/{version}-{channel}/x86_64-linux-gnu/{rust}"
