"""`nodefinder top`: the one health page, folded from a crawl's journals."""

import hashlib
import os
from pathlib import Path

from repro.cli import main
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import Event, EventJournal, iter_events, render_top
from repro.telemetry.health import natural_key
from tests.test_journal_bytes import PINNED

DATA = Path(__file__).parent / "data"


def dial(ts, node, outcome="full-harvest", stages=None):
    fields = {"node_id": node * 64, "outcome": outcome}
    if stages is not None:
        fields["stages"] = stages
    return Event("dial", ts, fields)


def crawler(name="nodefinder-0", node="cc"):
    return Event("crawler", 0.0, {"node_id": node * 64, "name": name})


def sample_journals():
    """Two segments of one crawl, given out of order: nine full harvests on
    shard 0, four timeouts and two breaker trips on shard 1."""
    shard0 = [crawler()]
    for n in range(9):
        shard0 += [
            dial(1.0 + n, "0a"),
            Event("hello", 1.0 + n, {"node_id": "0a" * 64}),
            Event("status", 1.0 + n, {"node_id": "0a" * 64}),
        ]
    shard1 = [crawler()] + [dial(2.0 + n, "8b", "timeout") for n in range(4)]
    shard1 += [
        Event("breaker", 7.0, {"node_id": "8b" * 64, "old": "closed", "new": "open"}),
        Event("breaker", 8.0, {"node_id": "8c" * 64, "old": "closed", "new": "open"}),
    ]
    return [("crawl-shard1.jsonl", shard1), ("crawl-shard0.jsonl", shard0)]


def table_rows(text, title):
    """The body rows of the table titled ``title``, split on whitespace."""
    lines = text.splitlines()
    start = lines.index(title) + 3
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def check_golden(name, rendered):
    path = DATA / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(rendered + "\n", encoding="utf-8")
    assert rendered + "\n" == path.read_text(encoding="utf-8")


class TestRenderTop:
    def test_rows_per_shard_sorted_numerically(self):
        text = render_top(sample_journals())
        rows = table_rows(text, "Journals")
        assert [row[0] for row in rows] == [
            "crawl-shard0.jsonl",
            "crawl-shard1.jsonl",
        ]
        # journal, dials, full harvests, hello, status
        assert rows[0] == ["crawl-shard0.jsonl", "9", "9", "9", "9"]
        assert rows[1] == ["crawl-shard1.jsonl", "4", "0", "0", "0"]

    def test_counters_fold_into_the_footer(self):
        text = render_top(sample_journals())
        assert table_rows(text, "Dial funnel") == [
            ["full-harvest", "9", "69.2%"],
            ["timeout", "4", "30.8%"],
        ]
        assert "peer breakers: →open 2; last reported open: 2" in text
        assert "subnet breakers: no transitions" in text
        assert "events: 9 hello, 9 status" in text

    def test_stage_latency_table_folds_shards(self):
        # three fast connects in one file and one slow in another fold
        # into one row — one file's samples must not shadow the rest
        fast = [dial(n, "01", stages={"connect": 0.004}) for n in range(3)]
        slow = [dial(5, "81", stages={"connect": 2.0, "hello": 0.04})]
        text = render_top([("a.jsonl", fast), ("b.jsonl", slow)])
        connect, hello = table_rows(text, "Stage latency")
        assert connect == ["connect", "4.0ms", "2000.0ms", "2000.0ms"]
        assert hello == ["hello", "40.0ms", "40.0ms", "40.0ms"]

    def test_segment_ids_sort_numerically(self):
        labels = ["10.g2", "2.g1", "2.g10", "2.g2", "3", "10", "-"]
        ordered = sorted(labels, key=natural_key)
        assert ordered == ["2.g1", "2.g2", "2.g10", "3", "10", "10.g2", "-"]

    def test_byte_stable_for_a_snapshot(self):
        assert render_top(sample_journals()) == render_top(sample_journals())

    def test_empty_snapshot_renders_placeholder(self):
        text = render_top([("empty.jsonl", [])])
        assert table_rows(text, "Journals") == [
            ["empty.jsonl", "0", "0", "0", "0"]
        ]
        assert "Dial funnel" in text
        assert "stage latency: no stage timings in these journals" in text
        assert "peer breakers: no transitions; last reported open: 0" in text


class TestBreakerScopes:
    def test_last_reported_state_decides_open(self):
        # a peer's last record decides, across files and per crawler
        events = [
            crawler(),
            Event("breaker", 1.0, {"node_id": "01" * 64, "old": "closed", "new": "open"}),
            Event("breaker", 2.0, {"node_id": "02" * 64, "old": "closed", "new": "open"}),
            Event("breaker", 3.0, {"node_id": "02" * 64, "old": "open", "new": "half-open"}),
            Event(
                "breaker",
                4.0,
                {"scope": "subnet", "subnet": "10.0.0.0/24", "old": "closed", "new": "open"},
            ),
        ]
        later = [
            crawler(),
            Event("breaker", 5.0, {"node_id": "02" * 64, "old": "half-open", "new": "open"}),
        ]
        other = [
            crawler("nodefinder-1", "dd"),
            Event("breaker", 1.0, {"node_id": "01" * 64, "old": "closed", "new": "open"}),
        ]
        text = render_top([("b.jsonl", later), ("a.jsonl", events), ("c.jsonl", other)])
        assert (
            "peer breakers: →half-open 1, →open 4; last reported open: 3" in text
        )
        assert "subnet breakers: →open 1" in text


def _world(nodes=300):
    return SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=nodes, seed=2018, measurement_days=1.0
            ),
            seed=7,
        )
    )


class TestSimIntegration:
    def test_sharded_sim_crawl_publishes_health(self, tmp_path):
        fleet = run_fleet(
            _world(150),
            instance_count=1,
            days=0.25,
            config=NodeFinderConfig(seed=1, discovery_interval=200, shards=2),
            telemetry_dir=tmp_path,
        )
        text = render_top((path, iter_events(path)) for path in fleet.journal_paths)
        rows = table_rows(text, "Journals")
        assert [row[0] for row in rows] == [
            "nodefinder-0-shard0.jsonl",
            "nodefinder-0-shard1.jsonl",
        ]
        for row, path in zip(rows, fleet.journal_paths):
            dials = sum(1 for event in iter_events(path) if event.type == "dial")
            assert int(row[1]) == dials > 0
        stats = fleet.merged_stats
        assert sum(int(row[1]) for row in rows) == sum(
            stats.total(kind)
            for kind in (
                "dynamic_dial_attempts",
                "static_dial_attempts",
                "incoming_connections",
            )
        )
        assert "full-harvest" in text

    def test_golden_top_of_the_four_shard_smoke_crawl(self, tmp_path):
        """The smoke crawl whose segment bytes ``test_journal_bytes`` pins."""
        fleet = run_fleet(
            _world(),
            instance_count=1,
            days=0.05,
            config=NodeFinderConfig(seed=1, shards=4),
            telemetry_dir=tmp_path,
        )
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in fleet.journal_paths
        } == PINNED[4]
        check_golden(
            "golden_top.txt",
            render_top((path, iter_events(path)) for path in fleet.journal_paths),
        )


class TestTopCLI:
    def _write(self, tmp_path):
        paths = []
        for name, events in sample_journals():
            path = tmp_path / name
            with EventJournal.open(path) as journal:
                for event in events:
                    journal.emit(event)
            paths.append(path)
        return paths

    def test_top_renders_journal_files(self, tmp_path, capsys):
        argv = ["top"]
        for path in self._write(tmp_path):
            argv += ["--journal", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == render_top(sample_journals()) + "\n"

    def test_top_is_byte_stable(self, tmp_path, capsys):
        argv = ["top"]
        for path in self._write(tmp_path):
            argv += ["--journal", str(path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
