"""Analysis pipeline tests: parsing, tables, CDFs, comparisons."""

import pytest

from repro.analysis.clients import (
    client_share_table,
    parse_client_id,
    pre_byzantium_fraction,
    stable_fraction,
    version_table,
)
from repro.analysis.distance import (
    simulate_distance_distribution,
    simulate_friction,
    simulate_lookup_convergence,
)
from repro.analysis.ecosystem import (
    network_stats,
    service_table,
    useless_fraction,
)
from repro.analysis.freshness import freshness_cdf
from repro.render import format_series, format_table, side_by_side
from repro.analysis.validation import build_validation_report
from repro.chain.genesis import MAINNET_GENESIS_HASH
from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import CrawlStats
from repro.nodefinder.records import DialOutcome, DialResult


def result(node_id, **overrides):
    values = dict(
        timestamp=500.0,
        node_id=node_id,
        ip="10.1.1.1",
        tcp_port=30303,
        connection_type="dynamic-dial",
        outcome=DialOutcome.FULL_HARVEST,
        latency=0.08,
        client_id="Geth/v1.8.8-stable-abc/linux-amd64/go1.10",
        capabilities=[("eth", 62), ("eth", 63)],
        listen_port=30303,
        network_id=1,
        genesis_hash=MAINNET_GENESIS_HASH,
        total_difficulty=10**21,
        best_hash=b"\xaa" * 32,
        best_block=5_000_000,
        dao_side="supports",
    )
    values.update(overrides)
    return DialResult(**values)


class TestClientParsing:
    def test_geth(self):
        info = parse_client_id("Geth/v1.8.11-stable-dea1ce05/linux-amd64/go1.10.2")
        assert info.family == "geth"
        assert info.version == (1, 8, 11)
        assert info.is_stable
        assert "linux" in info.platform

    def test_geth_unstable(self):
        info = parse_client_id("Geth/v1.8.13-unstable-abc/linux-amd64/go1.10")
        assert info.channel == "unstable"
        assert not info.is_stable

    def test_parity_beta(self):
        info = parse_client_id("Parity/v1.10.4-beta/x86_64-linux-gnu/rustc1.25.0")
        assert info.family == "parity"
        assert info.channel == "beta"

    def test_ethereumjs(self):
        info = parse_client_id("ethereumjs-devp2p/v1.0.0/linux-x64/nodejs")
        assert info.family == "ethereumjs"
        assert info.version == (1, 0, 0)

    def test_garbage_never_raises(self):
        for junk in ("", "////", "no-version-here", "x/y/z", "1.2.3"):
            parse_client_id(junk)

    def test_two_part_version(self):
        info = parse_client_id("Harmony/v2.1/linux")
        assert info.version == (2, 1, 0)


class TestClientTables:
    def make_db(self):
        db = NodeDB()
        for index in range(70):
            db.observe(result(bytes([1, index]) * 32))
        for index in range(20):
            db.observe(result(
                bytes([2, index]) * 32,
                client_id="Parity/v1.10.6-stable/x86_64-linux-gnu/rustc1.26.0",
            ))
        for index in range(6):
            db.observe(result(
                bytes([3, index]) * 32,
                client_id="ethereumjs-devp2p/v2.1.3/linux-x64/nodejs",
            ))
        for index in range(4):
            db.observe(result(
                bytes([4, index]) * 32,
                client_id="Geth/v1.6.5-stable-xyz/linux-amd64/go1.8",
            ))
        return db

    def test_client_share_table(self):
        rows = client_share_table(self.make_db().mainnet_nodes())
        shares = {family: share for family, _, share in rows}
        assert rows[0][0] == "geth"
        assert shares["geth"] == pytest.approx(0.74, abs=0.01)
        assert shares["parity"] == pytest.approx(0.20, abs=0.01)

    def test_version_table(self):
        rows = version_table(self.make_db().mainnet_nodes(), "geth")
        assert rows[0][0] == "v1.8.8"
        assert rows[0][2] == 70

    def test_stable_fraction(self):
        assert stable_fraction(self.make_db().mainnet_nodes(), "geth") == 1.0

    def test_pre_byzantium_fraction(self):
        fraction = pre_byzantium_fraction(self.make_db().mainnet_nodes())
        assert fraction == pytest.approx(4 / 74, abs=0.001)


class TestEcosystem:
    def make_db(self):
        db = NodeDB()
        for index in range(90):
            db.observe(result(bytes([1, index]) * 32))
        for index in range(4):
            db.observe(result(
                bytes([2, index]) * 32,
                capabilities=[("bzz", 0)],
                network_id=None, genesis_hash=None, best_hash=None,
                best_block=None, total_difficulty=None, dao_side=None,
                outcome=DialOutcome.HELLO_THEN_DISCONNECT,
            ))
        for index in range(6):
            db.observe(result(
                bytes([3, index]) * 32,
                network_id=8, genesis_hash=b"\x08" * 32, dao_side=None,
            ))
        for index in range(3):
            db.observe(result(bytes([4, index]) * 32, dao_side="opposes"))
        return db

    def test_service_table(self):
        rows = service_table(self.make_db())
        assert rows[0][0] == "eth"
        assert rows[0][2] > 0.9

    def test_network_stats(self):
        stats = network_stats(self.make_db())
        assert stats.mainnet_nodes == 90
        assert stats.classic_nodes == 3
        assert stats.distinct_network_ids == 2
        assert stats.distinct_genesis_hashes == 2

    def test_useless_fraction(self):
        # 4 bzz + 6 ubiq + 3 classic = 13 useless of 103
        fraction = useless_fraction(self.make_db())
        assert fraction == pytest.approx(13 / 103, abs=0.01)


class TestFreshness:
    def test_cdf_and_stale_fraction(self):
        db = NodeDB()
        head = 5_463_000
        for index in range(60):  # synced
            db.observe(result(bytes([1, index]) * 32, best_block=head - index))
        for index in range(30):  # stale
            db.observe(result(bytes([2, index]) * 32, best_block=head - 100_000 - index))
        for index in range(10):  # stuck at Byzantium + 1
            db.observe(result(bytes([3, index]) * 32, best_block=4_370_001))
        report = freshness_cdf(db, head_height=head)
        assert report.total == 100
        assert report.stale == 40  # 30 stale + 10 stuck
        assert report.stale_fraction == pytest.approx(0.40)
        assert report.stuck_at_byzantium == 10
        cdf = dict(report.cdf_points)
        assert cdf[5_000_000] == 1.0
        assert cdf[100] == pytest.approx(0.6, abs=0.01)


class TestValidationReport:
    def test_series_and_ratio(self):
        stats = CrawlStats()
        for day in range(4):
            stats.record_discovery(day, lookups=100)
            for index in range(50):
                stats.record_dial(day, result(bytes([day, index]) * 32))
        report = build_validation_report(stats)
        assert len(report.discovery_per_day) == 4
        assert report.discovery_daily_average == 100
        assert report.ratio_stability() < 0.05  # constant ratio (Fig 5)


class TestDistanceAnalyses:
    def test_distribution_modes(self):
        dist = simulate_distance_distribution(trials=4000, hash_ids=False)
        assert dist.geth_mode() == 256
        assert 215 < dist.parity_mode() < 233
        # Geth: P(256) = 1/2, P(255) = 1/4
        assert dist.geth[256] / dist.trials == pytest.approx(0.5, abs=0.03)
        assert dist.geth[255] / dist.trials == pytest.approx(0.25, abs=0.03)

    def test_parity_rarely_reaches_256(self):
        dist = simulate_distance_distribution(trials=4000, hash_ids=False)
        assert dist.parity[256] / dist.trials < 0.001

    def test_hashing_ids_matches_direct_sampling(self):
        hashed = simulate_distance_distribution(trials=1500, hash_ids=True)
        direct = simulate_distance_distribution(trials=1500, hash_ids=False, seed=77)
        assert abs(hashed.geth_mode() - direct.geth_mode()) == 0
        assert abs(hashed.parity_mode() - direct.parity_mode()) <= 4

    def test_friction_geth_beats_parity(self):
        report = simulate_friction(table_size=300, lookups=100)
        assert report.geth_mean_improvement > report.parity_mean_improvement

    def test_lookup_convergence_ordering(self):
        report = simulate_lookup_convergence(
            population=300, lookups=60, neighbors_per_node=60
        )
        assert report.exact_hit["geth"] > report.exact_hit["parity"]
        assert report.final_gap["parity"] > report.final_gap["geth"]
        assert (
            report.exact_hit["geth"]
            >= report.exact_hit["mixed"]
            >= report.exact_hit["parity"]
        )


class TestRender:
    def test_format_table(self):
        text = format_table("T", ["a", "b"], [["x", 1], ["yy", 0.5]])
        assert "T" in text and "yy" in text and "0.500" in text

    def test_format_series(self):
        text = format_series("S", [(0, 10), (1, 20)])
        assert "day    0" in text or "day 0" in text.replace("  ", " ")

    def test_format_series_empty(self):
        assert "(empty)" in format_series("S", [])

    def test_side_by_side(self):
        line = side_by_side(2.0, 4.0, "thing")
        assert "ratio 0.50" in line
