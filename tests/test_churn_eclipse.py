"""Tests for the churn analysis and the eclipse-takeover experiments."""

import pytest

from repro.analysis.churn import ChurnReport, churn_report
from repro.analysis.eclipse import simulate_table_takeover, takeover_comparison
from repro.nodefinder.database import NodeDB
from repro.units import SECONDS_PER_DAY
from repro.nodefinder.records import DialOutcome, DialResult


def sighting(node_id, timestamp, outcome=DialOutcome.FULL_HARVEST):
    return DialResult(
        timestamp=timestamp,
        node_id=node_id,
        ip="10.0.0.1",
        tcp_port=30303,
        connection_type="static-dial",
        outcome=outcome,
        client_id="Geth/v1.8.8-stable-x/linux-amd64/go1.10",
        capabilities=[("eth", 63)],
        listen_port=30303,
    )


class TestChurn:
    def make_db(self):
        db = NodeDB()
        # three always-on nodes across 4 days
        for index in range(3):
            node_id = bytes([1, index]) * 32
            db.observe(sighting(node_id, 0.0))
            db.observe(sighting(node_id, 3.5 * SECONDS_PER_DAY))
        # five one-day nodes (day 1 only)
        for index in range(5):
            node_id = bytes([2, index]) * 32
            db.observe(sighting(node_id, 1.2 * SECONDS_PER_DAY))
            db.observe(sighting(node_id, 1.6 * SECONDS_PER_DAY))
        # a node never reached
        db.observe(sighting(b"\x03" * 64, 2.0 * SECONDS_PER_DAY,
                            outcome=DialOutcome.TIMEOUT))
        return db

    def test_counts(self):
        report = churn_report(self.make_db(), total_days=4.0)
        assert report.total_nodes == 8  # the timeout-only node is excluded
        assert report.always_on == 3

    def test_daily_churn(self):
        report = churn_report(self.make_db(), total_days=4.0)
        rates = dict(report.daily_churn_rates)
        # day 1 had 8 nodes; 5 vanish by day 2
        assert rates[1] == pytest.approx(5 / 8)
        assert rates[0] == 0.0  # all day-0 nodes survive to day 1

    def test_lifetimes(self):
        report = churn_report(self.make_db(), total_days=4.0)
        assert report.median_lifetime_hours == pytest.approx(0.4 * 24, abs=0.5)
        cdf = dict(report.lifetime_cdf([1.0, 24.0, 100.0]))
        assert cdf[100.0] == 1.0
        assert cdf[24.0] == pytest.approx(5 / 8)

    def test_empty_db(self):
        report = churn_report(NodeDB(), total_days=3.0)
        assert report.total_nodes == 0
        assert report.mean_daily_churn == 0.0
        assert report.median_lifetime_hours == 0.0

    def test_on_simulated_crawl(self):
        from repro.nodefinder.fleet import run_fleet
        from repro.nodefinder.scanner import NodeFinderConfig
        from repro.simnet.population import PopulationConfig
        from repro.simnet.world import SimWorld, WorldConfig

        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=200, measurement_days=2.0, seed=5
                ),
                seed=5,
            )
        )
        fleet = run_fleet(world, instance_count=1, days=2.0,
                          config=NodeFinderConfig(discovery_interval=120.0))
        from repro.nodefinder.sanitize import sanitize

        raw = churn_report(fleet.merged_db, total_days=2.0)
        clean_db, _ = sanitize(fleet.merged_db, fleet.own_node_ids())
        clean = churn_report(clean_db, total_days=2.0)
        assert clean.total_nodes > 100
        assert clean.always_on > 0
        # abusive one-shot identities inflate churn; sanitising lowers it
        assert clean.mean_daily_churn < raw.mean_daily_churn
        assert 0.0 <= clean.mean_daily_churn < 0.8


class TestEclipse:
    def test_flushed_table_is_captured(self):
        report = simulate_table_takeover(flushed_table=True)
        assert report.table_share > 0.8
        assert report.lookup_share > 0.8
        assert report.eclipsed_lookups > 0.5

    def test_established_table_resists(self):
        """Kademlia's old-node-favouring eviction is the defence (§2.1)."""
        report = simulate_table_takeover(flushed_table=False)
        assert report.table_share < 0.6
        assert report.lookup_share < 0.7

    def test_contrast(self):
        flushed, established = takeover_comparison(
            honest_nodes=200, attacker_ids=1500, lookups=60
        )
        assert flushed.table_share > established.table_share + 0.2
        assert flushed.lookup_share > established.lookup_share

    def test_small_attacker_fails_against_established_table(self):
        report = simulate_table_takeover(attacker_ids=20, flushed_table=False)
        assert report.lookup_share < 0.35
        assert report.eclipsed_lookups < 0.05

    def test_even_small_floods_matter_after_flush(self):
        """Marcus et al.'s point: the post-reboot window is the weakness —
        arriving first, even a modest identity pool claims real bucket
        share before honest peers return."""
        report = simulate_table_takeover(attacker_ids=20, flushed_table=True)
        assert report.lookup_share > 0.2
