"""reprolint: the tier-1 gate plus rule-by-rule fixture coverage.

``test_src_tree_is_clean`` is the enforcement point: any PR that
reintroduces nondeterminism in sim code, a blocking call or swallowed
cancellation in the crawler, a silent except, or str/bytes mixing in the
wire layers fails tier-1.
"""

import json
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

SRC = Path(repro.__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULE_CODES = {
    "SIM-DET",
    "ASYNC-BLOCK",
    "ASYNC-CANCEL",
    "EXC-SILENT",
    "RETRY-SAFE",
    "OBS-CLOCK",
    "INGEST-PURE",
    "SHARD-SAFE",
    "RACE-RMW",
    "RACE-STALE",
    "RACE-LOCK",
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
    "nodefinder/bad_shard_state.py": {"SHARD-SAFE": 2},
    "telemetry/bad_wallclock.py": {"OBS-CLOCK": 3},
    "telemetry/bad_profiler_wallclock.py": {"OBS-CLOCK": 3},
    "analysis/bad_impure.py": {"INGEST-PURE": 4},
    "race/bad_rmw.py": {"RACE-RMW": 3},
    "race/bad_stale.py": {"RACE-STALE": 2},
    "race/bad_lock.py": {"RACE-LOCK": 1},
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
    "nodefinder/clean_shard_writer.py",
    "telemetry/clean_injected.py",
    "telemetry/clean_profiler.py",
    "analysis/clean_pure.py",
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
    "analysis/bad_impure.py": {"wall-clock": 1, "calendar": 1, "file-I/O": 2},
    "telemetry/clean_injected.py": {},
}

#: the ban classes each row carries, pinned so a row cannot quietly drop one
AMBIENT_BANS = {
    "SIM-DET": {
        "global-RNG", "wall-clock", "calendar", "OS-entropy", "heap-scheduling"
    },
    "OBS-CLOCK": {"wall-clock", "calendar"},
    "INGEST-PURE": {"wall-clock", "calendar", "file-I/O"},
    "SHARD-SAFE": {"global-RNG", "wall-clock"},
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


# -- select/ignore ----------------------------------------------------------


def test_select_and_ignore():
    path = FIXTURES / "exc_silent" / "bad_silent.py"
    assert lint_paths([path], select=["SIM-DET"]) == []
    assert lint_paths([path], ignore=["EXC-SILENT"]) == []
    assert len(lint_paths([path], select=["EXC-SILENT"])) == 2


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


def test_cli_json_output(capsys):
    rc = main([str(FIXTURES / "exc_silent" / "bad_silent.py"), "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked_files"] == 1
    assert payload["counts"] == {"EXC-SILENT": 2}
    for finding in payload["findings"]:
        assert {"path", "line", "col", "code", "message"} <= set(finding)


def test_cli_list_rules(capsys):
    rc = main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in RULE_CODES:
        assert code in out


def test_cli_nonexistent_path_is_usage_error(capsys):
    rc = main(["no/such/dir"])
    assert rc == 2
    assert "no python files found" in capsys.readouterr().err


def test_cli_unknown_code_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES), "--select", "NO-SUCH-RULE"])
    assert excinfo.value.code == 2


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
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1
    assert json.loads(result.stdout)["counts"] == {"SIM-DET": 4}


# -- mutants of the real crawler --------------------------------------------

#: a plausible slip in ``nodefinder/live.py`` per rule that has never fired
#: on a committed tree: ``(old, new)`` replacements, each anchor present once
LIVE_MUTANTS = {
    "ASYNC-BLOCK": [  # a blocking sleep before the harvest of a dial
        (
            "        async with self._semaphore:\n            result = await self._harvest(",
            "        async with self._semaphore:\n            time.sleep(0.01)\n"
            "            result = await self._harvest(",
        )
    ],
    "RACE-STALE": [  # open the discovery service lazily, re-checking nothing
        (
            "        assert self.discovery is not None\n        while not self._stopping:",
            "        if self.discovery is None:\n"
            "            self.discovery = await self._open_discovery()\n"
            "        while not self._stopping:",
        )
    ],
    "RACE-LOCK": [  # a threading lock held over the awaited harvest
        ("import time\n", "import threading\nimport time\n"),
        (
            "        self._stopping = False\n",
            "        self._stopping = False\n        self._lock = threading.Lock()\n",
        ),
        (
            "        async with self._semaphore:\n            result = await self._harvest(",
            "        with self._lock:\n            result = await self._harvest(",
        ),
    ],
}


@pytest.mark.parametrize("code", [None, *LIVE_MUTANTS])
def test_rule_catches_its_mutant_of_the_live_crawler(tmp_path, code):
    """Each rule fires exactly once on its mutant of the real live.py, and
    the unmutated copy (same package path, so the same scopes) is clean."""
    text = (SRC / "repro" / "nodefinder" / "live.py").read_text()
    for old, new in LIVE_MUTANTS.get(code, []):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    target = tmp_path / "repro" / "nodefinder" / "live.py"
    target.parent.mkdir(parents=True)
    target.write_text(text)
    findings = lint_paths([target])
    assert [finding.code for finding in findings] == ([code] if code else [])


# -- file discovery ---------------------------------------------------------


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "cached.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    files = iter_python_files([tmp_path])
    assert [path.name for path in files] == ["real.py"]
