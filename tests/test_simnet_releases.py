"""Release-calendar and adoption-model tests (§6.2 / Figure 10 machinery)."""

import random

import pytest

from repro.simnet.releases import (
    GETH_RELEASES,
    MEASUREMENT_DAYS,
    PARITY_RELEASES,
    Release,
    VersionAdoptionModel,
    default_geth_model,
    default_parity_model,
    geth_client_string,
    parity_client_string,
)


class TestCalendar:
    def test_geth_releases_ordered(self):
        days = [release.day for release in GETH_RELEASES]
        assert days == sorted(days)

    def test_newest_releases_near_window_end(self):
        """v1.8.12 (Jul 5) and v1.10.9 (Jul 7) land days before Jul 8."""
        geth_last = GETH_RELEASES[-1]
        parity_last = PARITY_RELEASES[-1]
        assert geth_last.version == "v1.8.12"
        assert MEASUREMENT_DAYS - 7 < geth_last.day < MEASUREMENT_DAYS
        assert parity_last.version == "v1.10.9"
        assert MEASUREMENT_DAYS - 4 < parity_last.day < MEASUREMENT_DAYS

    def test_pulled_releases_marked_unstable(self):
        """v1.8.5 and v1.8.9 were quickly replaced (deadlocks, §6.2)."""
        by_version = {release.version: release for release in GETH_RELEASES}
        assert not by_version["v1.8.5"].stable
        assert not by_version["v1.8.9"].stable

    def test_parity_mixes_channels(self):
        stable = sum(1 for release in PARITY_RELEASES if release.stable)
        beta = sum(1 for release in PARITY_RELEASES if not release.stable)
        assert stable and beta


class TestAdoptionModel:
    def test_updater_skips_unstable_releases(self):
        model = default_geth_model()
        behaviour = {"kind": "updater", "lag_days": 0.5, "beta": False}
        # the day after the pulled v1.8.5, a stable-only updater runs v1.8.4
        assert model.version_at(behaviour, day=0.0) == "v1.8.4"

    def test_lag_delays_adoption(self):
        model = default_geth_model()
        slow = {"kind": "updater", "lag_days": 30.0, "beta": False}
        fast = {"kind": "updater", "lag_days": 0.5, "beta": False}
        release_day = 47  # v1.8.10
        assert model.version_at(fast, release_day + 1) == "v1.8.10"
        assert model.version_at(slow, release_day + 1) != "v1.8.10"

    def test_population_mix_shapes(self):
        model = default_geth_model()
        rng = random.Random(3)
        kinds = [model.draw_behaviour(rng)["kind"] for _ in range(2000)]
        legacy = kinds.count("legacy") / len(kinds)
        pinned = kinds.count("pinned") / len(kinds)
        updater = kinds.count("updater") / len(kinds)
        assert 0.02 < legacy < 0.06      # ~3.5% pre-Byzantium (§6.2)
        assert 0.15 < pinned < 0.30
        assert updater > 0.6

    def test_beta_follower_sees_betas(self):
        model = default_parity_model()
        behaviour = {"kind": "updater", "lag_days": 0.5, "beta": True}
        stable_only = {"kind": "updater", "lag_days": 0.5, "beta": False}
        # day 55: v1.10.7 (beta) just shipped; stable-only sits on v1.10.6
        assert model.version_at(behaviour, 55.0) == "v1.10.7"
        assert model.version_at(stable_only, 55.0) == "v1.10.6"


class TestClientStrings:
    def test_geth_string_format(self):
        text = geth_client_string("v1.8.11", random.Random(1))
        parts = text.split("/")
        assert parts[0] == "Geth"
        assert parts[1].startswith("v1.8.11-stable-")
        assert len(parts) == 4

    def test_unstable_bumps_version(self):
        text = geth_client_string("v1.8.11", random.Random(1), unstable=True)
        assert "v1.8.12-unstable-" in text

    def test_parity_string_format(self):
        text = parity_client_string("v1.10.6", random.Random(2))
        assert text.startswith("Parity/v1.10.6-")
        assert "x86_64-linux-gnu" in text

    def test_decoration_deterministic_per_rng(self):
        assert geth_client_string("v1.8.8", random.Random(7)) == geth_client_string(
            "v1.8.8", random.Random(7)
        )
