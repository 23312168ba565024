"""Suppression accounting and selector families.

The CI-facing surface of reprolint beyond the per-rule fixtures: that
suppressed findings are counted (in text and JSON, for module and
project rules alike) and that ``--select``/``--ignore`` accept family
prefixes.
"""

import json
from pathlib import Path

from repro.devtools import lint_paths
from repro.devtools.lint import main
from repro.devtools.registry import selector_matches, unknown_selectors
from repro.devtools.runner import run_paths

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


# -- suppression accounting -------------------------------------------------


def test_suppressed_counts_surface_in_text_and_json(capsys):
    fixture = str(FIXTURES / "simnet" / "suppressed.py")
    rc = main([fixture])
    assert rc == 1
    assert "2 suppressed" in capsys.readouterr().err

    rc = main([fixture, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["suppressed"] == 2
    assert payload["counts"] == {"SIM-DET": 1}


def test_project_rule_findings_are_suppressible_and_counted(tmp_path):
    bad = (FIXTURES / "ownership" / "bad_mutation.py").read_text()
    target = tmp_path / "shardwork.py"
    target.write_text("# reprolint: disable-file=OWNERSHIP\n" + bad)
    run = run_paths([target])
    assert run.findings == []
    assert run.suppressed == 3


# -- family-prefix selectors ------------------------------------------------


def test_selector_matches_family_prefix_not_substring():
    assert selector_matches("RACE-RMW", "RACE")
    assert selector_matches("RACE-RMW", "RACE-RMW")
    assert selector_matches("TASK-LIFE-ORPHAN", "TASK-LIFE")
    assert not selector_matches("RACE-RMW", "RACE-RM")
    assert not selector_matches("RACEY-THING", "RACE")


def test_unknown_selectors_reject_typos_but_accept_families():
    assert unknown_selectors(["RACE", "TASK-LIFE", "OWNERSHIP"]) == set()
    assert unknown_selectors(["RACE", "RCAE"]) == {"RCAE"}


def test_family_select_covers_all_members():
    race_dir = FIXTURES / "race"
    codes = {f.code for f in lint_paths([race_dir], select=["RACE"])}
    assert codes == {"RACE-RMW", "RACE-STALE", "RACE-LOCK"}
    assert lint_paths([race_dir], ignore=["RACE"]) == []


def test_cli_accepts_family_prefix_selectors(capsys):
    fixture = str(FIXTURES / "task_life" / "bad_orphan.py")
    rc = main([fixture, "--select", "TASK-LIFE", "--format", "json"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["counts"] == {
        "TASK-LIFE-ORPHAN": 3
    }
    rc = main([fixture, "--select", "RACE"])
    capsys.readouterr()
    assert rc == 0  # no RACE findings in the orphan fixture
