"""Fleet metrics export: per-instance journals + merged registry snapshots.

Covers the ``run_fleet(telemetry_dir=...)`` path end to end — files on
disk, aggregate merge arithmetic (fleet totals equal the sum of every
instance's counters), and the guard rails ``merge_snapshots`` raises
instead of silently shadowing.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.ingest import replay_journals
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import MetricError, MetricsRegistry, merge_snapshots


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    telemetry_dir = tmp_path_factory.mktemp("fleet-telemetry")
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=100, measurement_days=1.0, seed=23
            )
        )
    )
    return run_fleet(
        world,
        instance_count=3,
        days=1.0,
        config=NodeFinderConfig(discovery_interval=120.0),
        telemetry_dir=telemetry_dir,
    )


def counter_total(snapshot: dict, name: str) -> float:
    for family in snapshot["metrics"]:
        if family["name"] == name:
            return sum(series["value"] for series in family["series"])
    return 0.0


class TestFleetTelemetryExport:
    def test_journal_per_instance_plus_metrics_on_disk(self, fleet):
        assert len(fleet.journal_paths) == 3
        for path, instance in zip(fleet.journal_paths, fleet.instances):
            assert path.name == f"{instance.name}.jsonl"
            assert path.stat().st_size > 0
        assert fleet.metrics_path is not None
        on_disk = json.loads(fleet.metrics_path.read_text())
        assert on_disk == fleet.merged_metrics()

    def test_merged_counters_equal_sum_of_instances(self, fleet):
        snapshots = fleet.instance_snapshots()
        merged = fleet.merged_metrics()
        names = {
            family["name"]
            for snapshot in snapshots
            for family in snapshot["metrics"]
            if family["type"] == "counter"
        }
        assert "nodefinder_dials_total" in names
        for name in names:
            total = sum(counter_total(snapshot, name) for snapshot in snapshots)
            assert counter_total(merged, name) == pytest.approx(total), name

    def test_merged_histograms_sum_counts(self, fleet):
        snapshots = fleet.instance_snapshots()
        merged = fleet.merged_metrics()
        for family in merged["metrics"]:
            if family["type"] != "histogram":
                continue
            merged_count = sum(series["count"] for series in family["series"])
            per_instance = sum(
                series["count"]
                for snapshot in snapshots
                for fam in snapshot["metrics"]
                if fam["name"] == family["name"]
                for series in fam["series"]
            )
            assert merged_count == per_instance, family["name"]

    def test_journals_replay_to_the_fleet_view(self, fleet):
        replayed = replay_journals(fleet.journal_paths)
        assert replayed.dials_replayed == int(
            counter_total(fleet.merged_metrics(), "nodefinder_dials_total")
        )
        # every peer any instance dialed appears in the merged replay
        for instance in fleet.instances:
            for entry in instance.db:
                assert entry.node_id in replayed.db


class TestMergeGuards:
    def test_type_mismatch_rejected(self):
        counters = MetricsRegistry()
        counters.counter("x_total", "x").labels().inc()
        gauges = MetricsRegistry()
        gauges.gauge("x_total", "x").labels().set(1)
        with pytest.raises(MetricError, match="registered as"):
            merge_snapshots([counters.snapshot(), gauges.snapshot()])
