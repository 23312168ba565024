"""CLI smoke tests (each command end to end, small workloads)."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
#: the documents whose fenced command examples must stay runnable, plus
#: the verification notes under a hidden ``skills`` directory
DOCUMENTS = [
    REPO / name
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/perf/README.md")
] + sorted(REPO.glob(".*/skills/*/SKILL.md"))
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
COMMAND = re.compile(r"^(?:\$ )?(?:PYTHONPATH=\S+ )?(?:nodefinder|python3? -m repro\.cli) ")


def documented_commands():
    """``(document, command line)`` for every ``nodefinder …`` or
    ``python -m repro.cli …`` line in a fenced block, continuations joined."""
    for path in DOCUMENTS:
        for block in FENCE.findall(path.read_text(encoding="utf-8")):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                match = COMMAND.match(line.strip())
                if match:
                    yield path.relative_to(REPO), line.strip()[match.end():]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        enode = "enode://" + "ab" * 64 + "@127.0.0.1:30303"
        for argv in (
            ["demo"], ["simulate"], ["casestudy"], ["distance"],
            ["top", "--journal", "crawl.jsonl"], ["analyze"],
            ["crawl", "--enode", enode],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_every_documented_command_parses(self, capsys):
        """A renamed or dropped option cannot leave the docs behind."""
        parser = build_parser()
        commands = list(documented_commands())
        assert len(commands) >= 20  # README.md alone quotes 20
        broken = []
        for document, line in commands:
            try:
                parser.parse_args(shlex.split(line, comments=True))
            except SystemExit:
                broken.append((document, line, capsys.readouterr().err))
        assert not broken


class TestCommands:
    def test_casestudy(self, capsys):
        assert main(["casestudy", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "Too many peers" in out
        assert "Geth/v1.7.3" in out and "Parity/v1.7.9" in out

    def test_distance_fast(self, capsys):
        assert main(["distance", "--trials", "1500", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Geth   mode distance: 256" in out

    def test_simulate_small(self, capsys):
        assert main([
            "simulate", "--nodes", "150", "--days", "1",
            "--instances", "1", "--discovery-interval", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "DEVp2p services" in out
        assert "useless-peer fraction" in out

    def test_demo(self, capsys):
        assert main(["demo", "--nodes", "2", "--blocks", "4"]) == 0
        out = capsys.readouterr().out
        assert "harvested 2 STATUS messages" in out

    def test_demo_writes_journal_then_top_reads_it(self, capsys, tmp_path):
        journal = tmp_path / "crawl.jsonl"
        assert main([
            "demo", "--nodes", "2", "--blocks", "4", "--journal", str(journal),
        ]) == 0
        out = capsys.readouterr().out
        assert "measurement journal" in out and journal.exists()

        assert main(["top", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "Dial funnel" in out and "full-harvest" in out
        # a live harvest times its stages, so the page fills the table
        lines = out.splitlines()
        header = lines.index("Stage latency") + 2
        assert [line.split()[0] for line in lines[header + 1 : header + 6]] == [
            "connect", "rlpx", "hello", "status", "dao",
        ]

    def test_top_requires_an_input(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["top"])
        assert excinfo.value.code == 2
        assert "--journal" in capsys.readouterr().err

    def test_demo_journal_feeds_analyze(self, capsys, tmp_path):
        journal = tmp_path / "crawl.jsonl"
        assert main([
            "demo", "--nodes", "2", "--blocks", "4", "--journal", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main(["analyze", "--journal", str(journal)]) == 0
        captured = capsys.readouterr()
        assert "DEVp2p services (Table 3)" in captured.out
        assert "Networks (Figure 9)" in captured.out
        # replay provenance goes to stderr, keeping stdout byte-comparable
        assert "replayed" in captured.err

    def test_simulate_telemetry_dir_mentions_replay(self, capsys, tmp_path):
        telemetry_dir = tmp_path / "t"
        assert main([
            "simulate", "--nodes", "120", "--days", "1",
            "--instances", "2", "--discovery-interval", "300",
            "--telemetry-dir", str(telemetry_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet telemetry" in out and "nodefinder analyze" in out
        assert "nodefinder top" in out
        assert (telemetry_dir / "nodefinder-0.jsonl").exists()

    def test_simulate_sharded_writes_one_journal_per_shard(self, capsys, tmp_path):
        telemetry_dir = tmp_path / "sharded"
        assert main([
            "simulate", "--nodes", "120", "--days", "1",
            "--instances", "1", "--discovery-interval", "300",
            "--shards", "2",
            "--telemetry-dir", str(telemetry_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet telemetry" in out
        assert sorted(p.name for p in telemetry_dir.glob("*.jsonl")) == [
            "nodefinder-0-shard0.jsonl",
            "nodefinder-0-shard1.jsonl",
        ]
        argv = ["analyze"]
        for path in sorted(telemetry_dir.glob("*.jsonl")):
            argv += ["--journal", str(path)]
        assert main(argv) == 0
        assert "DEVp2p services (Table 3)" in capsys.readouterr().out

    def test_analyze_requires_exactly_one_input(self, capsys, tmp_path):
        assert main(["analyze"]) == 2
        assert "analyze:" in capsys.readouterr().err

    def test_analyze_eclipse_needs_a_journal(self, capsys):
        assert main(["analyze", "--eclipse"]) == 2
        assert "journal" in capsys.readouterr().err

    def _failed_dials_journal(self, tmp_path):
        journal = tmp_path / "failed.jsonl"
        lines = [
            '{"v": 3, "type": "dial", "ts": %d.0, "node_id": "%s",'
            ' "ip": "10.0.0.%d", "outcome": "timeout", "stage": "connect",'
            ' "duration": 15.0}' % (ts, "ab" * 64, ts + 1)
            for ts in range(3)
        ]
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return journal

    def test_analyze_failed_dials_only_renders_no_data(self, capsys, tmp_path):
        """Regression: a journal of nothing but failed dials must not
        crash analyze, and the report must render deterministically."""
        journal = self._failed_dials_journal(tmp_path)
        assert main(["analyze", "--journal", str(journal), "--eclipse"]) == 0
        first = capsys.readouterr().out
        assert "Eclipse detection" in first
        # one phantom peer is not an eclipse: the population floor keeps
        # the statistical triggers quiet on failed-dials-only journals
        assert "verdict: no eclipse fingerprints above thresholds" in first
        assert "DEVp2p services (Table 3)" in first
        assert main(["analyze", "--journal", str(journal), "--eclipse"]) == 0
        assert capsys.readouterr().out == first  # byte-stable

    def test_analyze_empty_journal_renders_no_data(self, capsys, tmp_path):
        journal = tmp_path / "empty.jsonl"
        journal.write_text("", encoding="utf-8")
        assert main(["analyze", "--journal", str(journal), "--eclipse"]) == 0
        first = capsys.readouterr().out
        assert "Eclipse detection" in first
        assert "(no data: journal carries no peer observations)" in first
        assert main(["analyze", "--journal", str(journal), "--eclipse"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["analyze", "top"])
    def test_torn_middle_line_is_one_error_line_not_a_traceback(
        self, command, capsys, tmp_path
    ):
        journal = self._failed_dials_journal(tmp_path)
        lines = journal.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:20]
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([command, "--journal", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(
            f"nodefinder: error: {journal.name} line 2: not valid JSON"
        )

    @pytest.mark.parametrize("command", ["analyze", "top"])
    def test_missing_journal_is_one_error_line_not_a_traceback(
        self, command, capsys, tmp_path
    ):
        missing = tmp_path / "nope.jsonl"
        assert main([command, "--journal", str(missing)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("nodefinder: error: ") and str(missing) in line

    def test_simulate_adversary_smoke(self, capsys):
        assert main([
            "simulate", "--nodes", "150", "--days", "1",
            "--instances", "1", "--discovery-interval", "300",
            "--adversary", "--sybils", "12", "--defenses",
        ]) == 0
        out = capsys.readouterr().out
        assert "adversary" in out
        assert "defen" in out  # defence summary line present
