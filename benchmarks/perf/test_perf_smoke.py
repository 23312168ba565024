"""Smoke test of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs ``run.py --smoke`` (300-node worlds / 0.05 sim-days, 2 loopback nodes /
6 harvests / 6 lookups, one repetition) and checks that what BENCHMARK.json
names is what the benchmark emits, and that a damaged output fails the run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_smoke(*args):
    """(exit code, the result objects printed, one per workload)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc.returncode, results


def assert_emitted(result, section):
    named = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
    assert set(result["metrics"]) == set(named)
    for name, emitted in result["metrics"].items():
        assert emitted["unit"] == named[name]
        assert isinstance(emitted["value"], float)


def test_contract_names_and_counts():
    sections = [CONTRACT["workloads"], CONTRACT["end_to_end"], CONTRACT["per_layer"]]
    assert 2 <= len(sections[0]) <= 8
    assert 1 <= len(sections[1]) <= 16
    assert 1 <= len(sections[2]) <= 128
    names = [entry["name"] for section in sections for entry in section]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in sections[1] + sections[2]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < metric["bound"] <= 0.25 for metric in sections[1])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in sections[1]
    )
    assert CONTRACT["paths"] == ["benchmarks/perf"]


def test_every_workload_emits_every_end_to_end_metric():
    code, results = run_smoke()
    assert code == 0
    assert len(results) == len(CONTRACT["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert_emitted(result, "end_to_end")
        assert all(emitted["value"] > 0 for emitted in result["metrics"].values())


def test_a_traced_run_emits_every_per_layer_metric():
    code, [result] = run_smoke("--workload", "live-harvest", "--trace", "1")
    assert code == 0 and result["correct"]
    assert_emitted(result, "per_layer")


def test_a_torn_journal_line_fails_the_run():
    code, [result] = run_smoke("--workload", "sim-build-5k", "--corrupt-journal")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
