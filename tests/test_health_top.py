"""Shard health introspection: gauges, Prometheus export, `nodefinder top`."""

import io
import json

from repro.cli import main
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import EventJournal, Telemetry, render_top


def _value(snapshot, name, shard):
    for metric in snapshot["metrics"]:
        if metric["name"] == name:
            for series in metric["series"]:
                if series["labels"].get("shard") == shard:
                    return series["value"]
    raise AssertionError(f"no {name}{{shard={shard!r}}} in snapshot")


class TestShardHealthGauges:
    def test_record_shard_health_sets_every_gauge(self):
        telemetry = Telemetry(shard="3")
        telemetry.record_shard_health(
            queue_depth=7, lag=0.25, open_breakers=2, journal_backlog=41
        )
        snapshot = telemetry.registry.snapshot()
        assert _value(snapshot, "crawler_shard_queue_depth", "3") == 7.0
        assert _value(snapshot, "crawler_shard_loop_lag_seconds", "3") == 0.25
        assert _value(snapshot, "crawler_shard_open_breakers", "3") == 2.0
        assert _value(snapshot, "crawler_journal_backlog", "3") == 41.0

    def test_none_fields_leave_gauges_untouched(self):
        telemetry = Telemetry(shard="0")
        telemetry.record_shard_health(lag=0.5)
        snapshot = telemetry.registry.snapshot()
        assert _value(snapshot, "crawler_shard_loop_lag_seconds", "0") == 0.5
        for metric in snapshot["metrics"]:
            if metric["name"] == "crawler_shard_open_breakers":
                assert metric["series"] == []

    def test_a_shard_facade_differs_in_the_label_only(self):
        # a crawler always builds one facade per segment, journals or not:
        # the segment id is the row; "" is a harvest with no crawler
        crawl = Telemetry(journal=EventJournal(io.StringIO()))
        facade = crawl.for_shard("2.g0")
        assert facade is not crawl and facade.shard == "2.g0"
        assert (facade.registry, facade.journal, facade.clock) == (
            crawl.registry, crawl.journal, crawl.clock
        )
        facade.record_shard_health(lag=0.7)
        crawl.record_shard_health(lag=0.1)
        snapshot = crawl.registry.snapshot()
        assert _value(snapshot, "crawler_shard_loop_lag_seconds", "2.g0") == 0.7
        assert _value(snapshot, "crawler_shard_loop_lag_seconds", "") == 0.1


def sample_snapshot():
    telemetry = Telemetry(shard="0")
    Telemetry(registry=telemetry.registry, shard="1").record_shard_health(
        queue_depth=3, lag=0.02, open_breakers=1, journal_backlog=12
    )
    telemetry.record_shard_health(
        queue_depth=0, lag=0.5, open_breakers=0, journal_backlog=2
    )
    telemetry.dials.labels(outcome="full-harvest", stage="", shard="0").inc(9)
    telemetry.dials.labels(outcome="timeout", stage="connect", shard="1").inc(4)
    telemetry.breaker_transitions.labels(to="open", shard="1").inc(2)
    return telemetry.registry.snapshot()


class TestRenderTop:
    def test_rows_per_shard_sorted_numerically(self):
        lines = render_top(sample_snapshot()).splitlines()
        shard_rows = [line.split() for line in lines[3:5]]
        assert [row[0] for row in shard_rows] == ["0", "1"]
        # shard 1: 4 dials, queue 3, lag 0.020, one open breaker, backlog 12
        assert shard_rows[1] == ["1", "4", "3", "0.020", "1", "12"]

    def test_counters_fold_into_the_footer(self):
        text = render_top(sample_snapshot())
        assert "breaker transitions: open=2" in text
        assert "full-harvest=9" in text and "timeout=4" in text

    def test_stage_latency_table_folds_shards(self):
        # one series per (stage, shard): three fast connects on shard 0 and
        # one slow on shard 1 fold into one row — the last shard's
        # histogram must not shadow the rest
        telemetry = Telemetry(shard="0")
        for _ in range(3):
            telemetry.stage_seconds.labels(stage="connect", shard="0").observe(0.004)
        telemetry.stage_seconds.labels(stage="connect", shard="1").observe(2.0)
        telemetry.stage_seconds.labels(stage="hello", shard="1").observe(0.04)
        lines = render_top(telemetry.registry.snapshot()).splitlines()
        header = lines.index("Stage latency") + 2
        assert lines[header].split() == ["stage", "p50", "p95", "max"]
        connect, hello = (line.split() for line in lines[header + 1 : header + 3])
        assert connect[0] == "connect" and hello[0] == "hello"
        p50, _, worst = (float(cell.rstrip("ms")) for cell in connect[1:])
        assert p50 <= 5.0 < 1000.0 <= worst

    def test_byte_stable_for_a_snapshot(self):
        snapshot = sample_snapshot()
        assert render_top(snapshot) == render_top(snapshot)

    def test_empty_snapshot_renders_placeholder(self):
        text = render_top({"metrics": []})
        assert "Shard health" in text
        assert "-" in text
        assert "Stage latency" in text
        assert "breaker transitions: none" in text


class TestPlanLine:
    """`top` shows the live (possibly resharded) plan — and only then."""

    def test_static_snapshot_has_no_plan_line(self):
        assert "plan:" not in render_top(sample_snapshot())

    def test_plan_line_lists_live_segments_by_range(self):
        telemetry = Telemetry()
        telemetry.record_shard_plan(
            [("0.g0", 0, 32768), ("1.g0", 32768, 65536)]
        )
        # a split retires 0.g0 and replaces it with two children
        telemetry.record_shard_plan(
            [
                ("0.g1", 0, 16384),
                ("1.g1", 16384, 32768),
                ("1.g0", 32768, 65536),
            ]
        )
        text = render_top(telemetry.registry.snapshot())
        [plan] = [line for line in text.splitlines() if line.startswith("plan:")]
        assert plan == (
            "plan: 3 live shards  "
            "0.g1=[0x0000,0x04000) "
            "1.g1=[0x4000,0x08000) "
            "1.g0=[0x8000,0x10000)"
        )
        assert "0.g0=" not in plan  # retired segments drop off the plan

    def test_merged_fleet_snapshot_renders_per_instance_ranges(self):
        """merge_snapshots sums gauges, so a 2-instance fleet doubles the
        range gauges (and ``active`` counts the publishers); the renderer
        must divide back down instead of printing 2x-wide ranges."""
        from repro.telemetry import merge_snapshots

        snapshots = []
        for _ in range(2):
            telemetry = Telemetry()
            telemetry.record_shard_plan(
                [("0.g0", 0, 32768), ("1.g0", 32768, 65536)]
            )
            snapshots.append(telemetry.registry.snapshot())
        text = render_top(merge_snapshots(snapshots))
        [plan] = [line for line in text.splitlines() if line.startswith("plan:")]
        assert plan == (
            "plan: 2 live shards  "
            "0.g0=[0x0000,0x08000) "
            "1.g0=[0x8000,0x10000)"
        )

    def test_retired_segment_gauges_do_not_skew_fleet_plan(self):
        """Retiring a segment zeroes its range gauges, not just active.
        A fleet where one instance resharded while another still runs
        the old plan sums gauges across instances on merge; a stale
        lo/hi left behind by the resharded instance (which contributes 0
        to ``active``) would widen the still-live publisher's range."""
        from repro.telemetry import merge_snapshots

        resharded = Telemetry()
        resharded.record_shard_plan(
            [("0.g0", 0, 32768), ("1.g0", 32768, 65536)]
        )
        resharded.record_shard_plan(
            [
                ("0.g1", 0, 16384),
                ("1.g1", 16384, 32768),
                ("1.g0", 32768, 65536),
            ]
        )
        behind = Telemetry()
        behind.record_shard_plan(
            [("0.g0", 0, 32768), ("1.g0", 32768, 65536)]
        )
        text = render_top(
            merge_snapshots(
                [resharded.registry.snapshot(), behind.registry.snapshot()]
            )
        )
        [plan] = [line for line in text.splitlines() if line.startswith("plan:")]
        # 0.g0 renders behind's live [0x0000,0x08000) — not doubled by the
        # resharded instance's stale gauges; 1.g0 (2 publishers) halves
        assert plan == (
            "plan: 4 live shards  "
            "0.g0=[0x0000,0x08000) "
            "0.g1=[0x0000,0x04000) "
            "1.g1=[0x4000,0x08000) "
            "1.g0=[0x8000,0x10000)"
        )

    def test_segment_ids_sort_numerically(self):
        from repro.telemetry.health import _shard_sort_key

        labels = ["10.g2", "2.g1", "2.g10", "2.g2", "3", "10", "-"]
        ordered = sorted(labels, key=_shard_sort_key)
        assert ordered == ["2.g1", "2.g2", "2.g10", "3", "10", "10.g2", "-"]


class TestSimIntegration:
    def test_sharded_sim_crawl_publishes_health(self, tmp_path):
        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=150, seed=2018, measurement_days=1.0
                ),
                seed=7,
            )
        )
        fleet = run_fleet(
            world,
            instance_count=1,
            days=0.25,
            config=NodeFinderConfig(seed=1, discovery_interval=200),
            telemetry_dir=tmp_path,
        )
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        text = render_top(snapshot)
        assert "Shard health" in text
        assert "full-harvest" in text
        assert fleet.merged_db  # the crawl itself still worked
        backlog = next(
            metric
            for metric in snapshot["metrics"]
            if metric["name"] == "crawler_journal_backlog"
        )
        assert backlog["series"], "scanner never published journal backlog"


class TestTopCLI:
    def test_top_renders_a_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(sample_snapshot()))
        assert main(["top", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Shard health" in out
        assert "dial outcomes" in out

    def test_top_is_byte_stable(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(sample_snapshot()))
        assert main(["top", "--metrics", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["top", "--metrics", str(path)]) == 0
        assert capsys.readouterr().out == first
