"""The reach ledger: every ``src/repro`` function is called by a product run
or named, with its reason, in ``tests/data/reach_ledger.txt``.

Run:  python tests/reach.py   (from the repository root, ≈5 min; Python ≥ 3.11)

It runs a fixed list of product runs in this one process — every CLI
subcommand, the four ``examples/``, the linter over ``src`` and over a
copy of ``live.py`` with one slip, and the paper
suite — under ``sys.setprofile`` / ``threading.setprofile``, then lists the
``src/repro`` functions (code objects with ``CO_NEWLOCALS``: defs and
methods, keyed by module path and ``co_qualname``; an interface stub whose
body is only ``...``, ``pass`` or ``raise NotImplementedError`` is not
counted) that none of them called.
It exits 0 when that list equals the ledger's and 1 otherwise, printing
what differs.  The paper suite rewrites ``benchmarks/results/*.txt`` with
the same bytes, as ``pytest benchmarks`` does.
"""

from __future__ import annotations

import ast
import asyncio
import contextlib
import inspect
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / "tests" / "data" / "reach_ledger.txt"

_called: set = set()


def _profile(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


def _is_stub(node: ast.AST) -> bool:
    """A def that only declares an interface: its body (after a docstring)
    is ``...``, ``pass`` or ``raise NotImplementedError`` — a typing
    Protocol member or an abstract method, nothing a run could execute."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1:
        return not body
    [statement] = body
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr):
        return isinstance(statement.value, ast.Constant) and statement.value.value is ...
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _stub_lines(tree: ast.AST) -> set:
    """First lines (as ``co_firstlineno`` counts them) of the stub defs."""
    return {
        min([node.lineno] + [d.lineno for d in node.decorator_list])
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_stub(node)
    }


def _functions(code, relpath: str, stubs: set, out: dict) -> None:
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        # defs and methods; lambdas, comprehensions and class bodies are
        # not keyed (a class body lacks CO_NEWLOCALS, the rest are <...>)
        if (const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<")
                and const.co_firstlineno not in stubs):
            key = f"{relpath}::{const.co_qualname}"
            # a property setter shares its getter's qualname
            while key in out.values():
                key += "'"
            out[(relpath, const.co_qualname, const.co_firstlineno)] = key
        _functions(const, relpath, stubs, out)


def all_functions() -> dict:
    """``(module path, qualname, first line) -> ledger key`` for every def
    and method under ``src/repro`` that is not an interface stub."""
    out: dict = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        relpath = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8")
        _functions(compile(source, str(path), "exec"), relpath,
                   _stub_lines(ast.parse(source)), out)
    return out


def read_ledger(path: pathlib.Path = LEDGER) -> dict:
    """``key -> (bin, reason)``; a line is ``<bin> <key> <reason>``."""
    ledger = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(maxsplit=2)
        kind, key = fields[0], fields[1]
        ledger[key] = (kind, fields[2] if len(fields) == 3 else "")
    return ledger


# -- the product runs ----------------------------------------------------------


def _cli(*argv: str) -> None:
    from repro.cli import main

    status = main(list(argv))
    if status != 0:
        raise SystemExit(f"nodefinder {' '.join(argv)} exited {status}")


def _cli_fails(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stderr(io.StringIO()):
        status = main(list(argv))
    if status != 2:
        raise SystemExit(f"nodefinder {' '.join(argv)} exited {status}, not 2")


def _example(name: str) -> None:
    runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")


def _lint() -> None:
    from repro.devtools.lint import main

    if main([str(SRC)]) != 0:
        raise SystemExit("repro.devtools.lint src found something")


def _lint_fails(tmp: pathlib.Path) -> None:
    """Lint the RACE-RMW mutant of live.py (``tests.support.mutants``): the
    run must exit 1."""
    from repro.devtools.lint import main
    from tests.support.mutants import PRODUCT_MUTANTS, write_mutant

    target = write_mutant(SRC, *PRODUCT_MUTANTS["RACE-RMW"], tmp)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = main([str(target)])
    if status != 1:
        raise SystemExit(f"repro.devtools.lint on a RACE-RMW slip exited {status}, not 1")


def _paper_suite() -> None:
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          str(ROOT / "benchmarks"),
                          f"--ignore={ROOT / 'benchmarks' / 'perf'}"])
    if status != 0:
        raise SystemExit(f"the paper suite exited {status}")


@contextlib.contextmanager
def _localhost_network(count: int):
    """``count`` live nodes served by an event loop on a second thread."""
    from repro.fullnode import start_localhost_network

    loop = asyncio.new_event_loop()
    started: list = []
    ready = threading.Event()

    def serve() -> None:
        asyncio.set_event_loop(loop)
        started.extend(loop.run_until_complete(start_localhost_network(count, blocks=8)))
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, name="localhost-network", daemon=True)
    thread.start()
    if not ready.wait(60):
        raise SystemExit("the localhost network did not start")
    try:
        yield [node.enode.to_url() for node in started]
    finally:
        async def stop() -> None:
            for node in started:
                await node.stop()

        asyncio.run_coroutine_threadsafe(stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        if thread.is_alive():
            raise SystemExit("the localhost network did not stop")
        loop.close()


def product_runs(tmp: pathlib.Path):
    """``(label, thunk)`` for every run, in order (later runs read what
    earlier ones wrote)."""
    sim = tmp / "sim"
    sim_journals = [f"{sim}/nodefinder-{i}-shard{k}.jsonl" for i in (0, 1) for k in (0, 1)]
    live = tmp / "live"
    demo = tmp / "demo.jsonl"
    foreign = tmp / "foreign.jsonl"

    def crawl() -> None:
        with _localhost_network(6) as enodes:
            argv = [f"--enode={url}" for url in enodes]
            _cli("crawl", *argv, "--seconds", "6", "--lookup-interval", "0.5",
                 "--static-dial-interval", "2", "--journal-dir", str(live))

    def analyze_foreign() -> None:
        # a dial whose port is not a number (skipped), then a line of a
        # schema version this reader does not speak (the error names it)
        foreign.write_text(
            '{"v":3,"type":"dial","ts":1.0,"node_id":"%s","ip":"10.0.0.1",'
            '"tcp_port":"x","outcome":"refused"}\n'
            '{"v":99,"type":"dial","ts":2.0}\n' % ("ab" * 64),
            encoding="utf-8",
        )
        _cli_fails("analyze", f"--journal={foreign}")

    return [
        ("simulate --adversary --defenses --instances 2 --shards 2",
         lambda: _cli("simulate", "--nodes", "300", "--days", "0.3", "--instances", "2",
                      "--adversary", "--defenses", "--shards", "2",
                      "--telemetry-dir", str(sim))),
        ("simulate --profile",
         lambda: _cli("simulate", "--nodes", "200", "--days", "0.1", "--instances", "1",
                      "--profile")),
        ("profile --shards 2",
         lambda: _cli("profile", "--nodes", "200", "--days", "0.2", "--shards", "2")),
        ("profile --wall",
         lambda: _cli("profile", "--nodes", "150", "--days", "0.1", "--wall")),
        ("analyze --sightings --eclipse",
         lambda: _cli("analyze", *[f"--journal={p}" for p in sim_journals],
                      "--sightings", "--eclipse")),
        ("top (simulated journals)",
         lambda: _cli("top", *[f"--journal={p}" for p in sim_journals])),
        ("casestudy", lambda: _cli("casestudy", "--days", "0.5")),
        ("distance", lambda: _cli("distance", "--trials", "2000")),
        ("demo --journal", lambda: _cli("demo", "--nodes", "4", "--blocks", "8",
                                        "--journal", str(demo))),
        ("crawl (6-node localhost network)", crawl),
        ("analyze --days 3 (live journal)",
         lambda: _cli("analyze", f"--journal={live}/crawl.jsonl", "--days", "3")),
        ("analyze (foreign journal, exits 2)", analyze_foreign),
        ("top (live journals)",
         lambda: _cli("top", f"--journal={live}/crawl.jsonl", f"--journal={demo}")),
        ("examples/quickstart.py", lambda: _example("quickstart.py")),
        ("examples/distance_bug.py", lambda: _example("distance_bug.py")),
        ("examples/ecosystem_survey.py", lambda: _example("ecosystem_survey.py")),
        ("examples/live_crawl.py", lambda: _example("live_crawl.py")),
        ("repro.devtools.lint src", _lint),
        ("repro.devtools.lint (a slip in live.py, exits 1)",
         lambda: _lint_fails(tmp / "lint")),
        ("paper suite", _paper_suite),
    ]


def main() -> int:
    if sys.version_info < (3, 11):
        print("reach: needs Python >= 3.11 (co_qualname)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for label, run in product_runs(pathlib.Path(tmp)):
            started = time.perf_counter()
            threading.setprofile(_profile)
            sys.setprofile(_profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run()
            finally:
                hooked = sys.getprofile() is _profile
                sys.setprofile(None)
                threading.setprofile(None)
            if not hooked:
                raise SystemExit(f"reach: {label} removed the profile hook")
            print(f"reach: {label}: {time.perf_counter() - started:.1f}s", file=sys.stderr)

    functions = all_functions()
    src = str(SRC)
    for code in _called:
        if code.co_filename.startswith(src):
            relpath = pathlib.Path(code.co_filename).relative_to(SRC).as_posix()
            functions.pop((relpath, code.co_qualname, code.co_firstlineno), None)
    unreached = set(functions.values())
    ledger = read_ledger()
    missing = sorted(unreached - set(ledger))
    reached = sorted(set(ledger) - unreached)
    for key in missing:
        print(f"unreached, not in the ledger: {key}")
    for key in reached:
        print(f"in the ledger, but reached or gone: {key}")
    print(f"reach: {len(unreached)} unreached functions, {len(ledger)} ledger lines")
    return 1 if missing or reached else 0


if __name__ == "__main__":
    sys.exit(main())
