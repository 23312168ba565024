"""reprolint: the tier-1 gate, fixture coverage, and one product mutant per code.

``test_src_tree_is_clean`` is the enforcement point: a change that
reintroduces nondeterminism in sim code, a blocking call or swallowed
cancellation in the crawler, a silent except, a race across an await, an
orphaned task or a second NodeDB writer fails tier-1.
"""

import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.devtools import all_rules, lint_paths
from repro.devtools.lint import main
from repro.devtools.rules.ambient import AMBIENT_RULES
from repro.devtools.runner import PARSE_ERROR, iter_python_files
from tests.support.mutants import PRODUCT_MUTANTS, write_mutant

SRC = Path(repro.__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULE_CODES = {
    "SIM-DET",
    "ASYNC-BLOCK",
    "ASYNC-CANCEL",
    "EXC-SILENT",
    "RETRY-SAFE",
    "OBS-CLOCK",
    "RACE-RMW",
    "RACE-STALE",
    "TASK-LIFE-ORPHAN",
    "TASK-LIFE-GATHER",
    "OWNERSHIP",
}


# -- the gate ---------------------------------------------------------------


def test_src_tree_is_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.format_text() for f in findings)


def test_registry_has_all_families():
    assert {rule.code for rule in all_rules()} == RULE_CODES


# -- firing fixtures --------------------------------------------------------

FIRING = {
    "simnet/bad_wallclock.py": {"SIM-DET": 3},
    "simnet/bad_random.py": {"SIM-DET": 4},
    "simnet/bad_heapq_scheduling.py": {"SIM-DET": 4},
    "chain/bad_datetime.py": {"SIM-DET": 2},
    "async_block/bad_blocking.py": {"ASYNC-BLOCK": 3},
    "async_cancel/bad_swallow.py": {"ASYNC-CANCEL": 3},
    "exc_silent/bad_silent.py": {"EXC-SILENT": 2},
    "nodefinder/bad_raw_await.py": {"RETRY-SAFE": 3},
    "telemetry/bad_wallclock.py": {"OBS-CLOCK": 3},
    "telemetry/bad_profiler_wallclock.py": {"OBS-CLOCK": 3},
    "race/bad_rmw.py": {"RACE-RMW": 3},
    "race/bad_stale.py": {"RACE-STALE": 2},
    "task_life/bad_orphan.py": {"TASK-LIFE-ORPHAN": 3},
    "task_life/bad_gather.py": {"TASK-LIFE-GATHER": 1},
    "ownership/bad_mutation.py": {"OWNERSHIP": 3},
}

CLEAN = [
    "simnet/clean_seeded.py",
    "simnet/clean_heap_queries.py",
    "async_block/clean_async.py",
    "async_cancel/clean_reraise.py",
    "exc_silent/clean_narrow.py",
    "nodefinder/clean_deadline.py",
    "telemetry/clean_injected.py",
    "telemetry/clean_profiler.py",
    "race/clean_locked.py",
    "task_life/clean_supervised.py",
    "ownership/clean_writer.py",
]


@pytest.mark.parametrize("relative", sorted(FIRING))
def test_fixture_fires(relative):
    findings = lint_paths([FIXTURES / relative])
    got = Counter(finding.code for finding in findings)
    assert dict(got) == FIRING[relative], "\n".join(
        f.format_text() for f in findings
    )


@pytest.mark.parametrize("relative", CLEAN)
def test_clean_fixture_stays_clean(relative):
    findings = lint_paths([FIXTURES / relative])
    assert findings == [], "\n".join(f.format_text() for f in findings)


# -- suppression comments ---------------------------------------------------


@pytest.mark.parametrize(
    "relative, code",
    [("simnet/suppressed.py", "SIM-DET"), ("telemetry/suppressed.py", "OBS-CLOCK")],
)
def test_suppression_comments(relative, code):
    findings = lint_paths([FIXTURES / relative])
    # two of the three violations are suppressed; the third carries a
    # disable for a different family and must still fire
    assert len(findings) == 1
    assert findings[0].code == code
    source_lines = (FIXTURES / relative).read_text().splitlines()
    assert "still_fires" in source_lines[findings[0].line - 2]


def test_disable_file_comment(tmp_path):
    bad = (FIXTURES / "simnet" / "bad_wallclock.py").read_text()
    target = tmp_path / "simnet" / "wallclock.py"
    target.parent.mkdir()
    target.write_text("# reprolint: disable-file=SIM-DET\n" + bad)
    assert lint_paths([target]) == []


def test_disable_all_suppresses_every_family(tmp_path):
    target = tmp_path / "simnet" / "module.py"
    target.parent.mkdir()
    target.write_text(
        "import time\n\n\ndef f():\n"
        "    return time.time()  # reprolint: disable=all\n"
    )
    assert lint_paths([target]) == []


# -- scoping ----------------------------------------------------------------


#: what each ambient fixture calls, by ban class; ``clean_injected.py``
#: only *references* ``time.monotonic`` and must never fire anywhere
AMBIENT_SOURCES = {
    "simnet/bad_wallclock.py": {"wall-clock": 2, "calendar": 1},
    "simnet/bad_random.py": {"global-RNG": 3, "OS-entropy": 1},
    "simnet/bad_heapq_scheduling.py": {"heap-scheduling": 4},
    "telemetry/clean_injected.py": {},
}

#: the ban classes each row carries, pinned so a row cannot quietly drop one
AMBIENT_BANS = {
    "SIM-DET": {
        "global-RNG", "wall-clock", "calendar", "OS-entropy", "heap-scheduling"
    },
    "OBS-CLOCK": {"wall-clock", "calendar"},
}


@pytest.mark.parametrize(
    "code, scope, banned, remedy",
    AMBIENT_RULES,
    ids=[row[0] for row in AMBIENT_RULES],
)
def test_ambient_row(tmp_path, code, scope, banned, remedy):
    """Each row fires on its banned classes inside its scope, only there."""
    assert set(banned) == AMBIENT_BANS[code]

    def findings_by_class(package, filename=None):
        counts = Counter()
        for relative in AMBIENT_SOURCES:
            target = tmp_path / package / (filename or relative.replace("/", "_"))
            target.parent.mkdir(exist_ok=True)
            shutil.copy(FIXTURES / relative, target)
            for finding in lint_paths([target]):
                assert finding.code == code and remedy in finding.message
                counts[finding.message.split(" call ")[0]] += 1
        return dict(counts)

    expected = Counter()
    for calls in AMBIENT_SOURCES.values():
        expected.update({k: n for k, n in calls.items() if k in banned})
    for package in scope:
        assert findings_by_class(package) == dict(expected)
        # the one exemption: the scheduler itself (simnet/clock.py) may own
        # a heap — and only under simnet/, a chain-side clock.py may not
        in_clock = dict(expected)
        if package == "simnet":
            del in_clock["heap-scheduling"]
        assert findings_by_class(package, "clock.py") == in_clock
    # the same sources outside the row's scope are not its business
    # (fullnode code may legitimately read the clock)
    assert findings_by_class("fullnode") == {}


# -- parse errors -----------------------------------------------------------


def test_syntax_error_is_reported_not_crashed(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    findings = lint_paths([target])
    assert len(findings) == 1 and findings[0].code == PARSE_ERROR


# -- CLI --------------------------------------------------------------------


def test_cli_clean_exit_zero(capsys):
    rc = main([str(FIXTURES / "simnet" / "clean_seeded.py")])
    assert rc == 0
    assert "clean" in capsys.readouterr().err


def test_cli_text_output_and_exit_one(capsys):
    rc = main([str(FIXTURES / "exc_silent" / "bad_silent.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "EXC-SILENT" in out and "bad_silent.py" in out
    # file:line:col prefix on every finding line
    for line in out.strip().splitlines():
        prefix = line.split(" ")[0]
        assert prefix.count(":") == 3


def test_cli_nonexistent_path_is_usage_error(capsys):
    rc = main(["no/such/dir"])
    assert rc == 2
    assert "no python files found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option", ["--format=json", "--select=RACE", "--ignore=RACE", "--list-rules"]
)
def test_cli_takes_paths_only(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main([option, str(FIXTURES / "exc_silent" / "clean_narrow.py")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_module_entrypoint(tmp_path):
    """`python -m repro.devtools.lint` works as documented in the README."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.devtools.lint",
            str(FIXTURES / "simnet" / "bad_random.py"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1
    assert [line.split(" ")[1] for line in result.stdout.splitlines()] == [
        "SIM-DET"
    ] * 4


# -- mutants of the product tree -------------------------------------------


def test_every_code_has_a_product_mutant():
    assert set(PRODUCT_MUTANTS) == RULE_CODES


@pytest.mark.parametrize(
    "path", sorted({path for path, _ in PRODUCT_MUTANTS.values()})
)
def test_unmutated_product_copy_is_clean(tmp_path, path):
    assert lint_paths([write_mutant(SRC, path, [], tmp_path)]) == []


@pytest.mark.parametrize("code", sorted(PRODUCT_MUTANTS))
def test_rule_catches_its_mutant_of_the_product_tree(tmp_path, code):
    """Each rule fires exactly once on its mutant of a real product file."""
    path, edits = PRODUCT_MUTANTS[code]
    findings = lint_paths([write_mutant(SRC, path, edits, tmp_path)])
    assert [finding.code for finding in findings] == [code]


# -- file discovery ---------------------------------------------------------


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "cached.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    files = iter_python_files([tmp_path])
    assert [path.name for path in files] == ["real.py"]
