"""Suppression accounting, and the await-boundary flow analysis under RACE.

The RACE rules are only as good as the walk under them, so the second
half pins the shapes that defeat straight-line scanners: escapes routed
through ``finally``, a raise reaching its handler, loop-carried state,
unreachable code after an endless loop, async iteration/context awaits,
nested functions and lambdas that must NOT count as awaits, lock
contexts held on the right statements, one statement that reads,
awaits and writes, and which names are shared state at all.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.devtools.dataflow import (
    SymbolModel,
    lock_name,
    module_globals,
    node_awaits,
    stale_writes,
)
from repro.devtools.lint import main
from repro.devtools.runner import run_paths

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


# -- suppression accounting -------------------------------------------------


def test_suppressed_counts_surface_in_text(capsys):
    fixture = str(FIXTURES / "simnet" / "suppressed.py")
    rc = main([fixture])
    captured = capsys.readouterr()
    assert rc == 1
    assert "2 suppressed" in captured.err
    assert [line.split(" ")[1] for line in captured.out.splitlines()] == [
        "SIM-DET"
    ]


def test_project_rule_findings_are_suppressible_and_counted(tmp_path):
    bad = (FIXTURES / "ownership" / "bad_mutation.py").read_text()
    target = tmp_path / "shardwork.py"
    target.write_text("# reprolint: disable-file=OWNERSHIP\n" + bad)
    run = run_paths([target])
    assert run.findings == []
    assert run.suppressed == 3


# -- await points -----------------------------------------------------------


def body_of(source):
    """The statements of the first function in ``source``."""
    tree = ast.parse(textwrap.dedent(source).strip())
    func = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return func.body


def awaiting_lines(source):
    return [stmt.lineno for stmt in body_of(source) if node_awaits(stmt)]


def test_plain_await_marks_exactly_its_statement():
    assert awaiting_lines(
        """
        async def f(self):
            a = 1
            await self.flush()
            b = 2
        """
    ) == [3]


def test_async_for_and_async_with_await():
    assert awaiting_lines(
        """
        async def f(self, stream, session):
            async for item in stream:
                self.handle(item)
            async with session:
                x = 1
            with self.span():
                x = 2
        """
    ) == [2, 4]


def test_nested_function_and_lambda_awaits_do_not_count():
    assert awaiting_lines(
        """
        async def outer(self, items):
            async def inner():
                await self.flush()
            key = lambda item: item.weight
            def helper():
                return [x async for x in self.stream()]
            return inner
        """
    ) == []


def test_await_inside_comprehension_is_an_await_of_the_statement():
    assert awaiting_lines(
        """
        async def f(self, targets):
            results = [await self.dial(t) for t in targets]
            return results
        """
    ) == [2]


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("self._lock", "self._lock"),
        ("self.registry_mutex", "self.registry_mutex"),
        ("threading.Lock()", "threading.Lock"),
        ("self._semaphore", "self._semaphore"),
        ("self.session", None),
        ("open(path)", None),
    ],
)
def test_lock_name_recognition(expr, expected):
    ctx = ast.parse(expr, mode="eval").body
    assert lock_name(ctx) == expected


# -- stale writes -----------------------------------------------------------


def source_stale_writes(source):
    tree = ast.parse(textwrap.dedent(source).strip())
    func = next(
        node for node in ast.walk(tree) if isinstance(node, ast.AsyncFunctionDef)
    )
    model = SymbolModel(func, module_globals(tree))
    return [
        (str(stale.symbol), stale.write_line) for stale in stale_writes(func, model)
    ]


def test_dataflow_flags_rmw_through_try_finally():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            try:
                await self.flush()
            finally:
                self.log()
            self.count = snapshot + 1
        """
    ) == [("self.count", 7)]


def test_return_in_try_routes_through_finally():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            try:
                await self.flush()
                return
            finally:
                self.count = snapshot + 1
        """
    ) == [("self.count", 7)]


def test_raise_in_try_body_reaches_its_handler():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            try:
                await self.flush()
                raise ValueError
            except ValueError:
                self.count = snapshot + 1
        """
    ) == [("self.count", 7)]


def test_dataflow_flags_loop_carried_race():
    assert source_stale_writes(
        """
        async def f(self, batches):
            for batch in batches:
                snapshot = self.total
                await self.flush()
                self.total = snapshot + len(batch)
        """
    ) == [("self.total", 5)]


def test_read_late_in_one_iteration_races_the_next_iterations_write():
    assert source_stale_writes(
        """
        async def f(self, batches):
            snapshot = 0
            for batch in batches:
                self.total = snapshot + 1
                snapshot = self.total
                await self.flush()
        """
    ) == [("self.total", 4)]


def test_break_leaves_the_loop_with_its_state():
    assert source_stale_writes(
        """
        async def f(self):
            while True:
                snapshot = self.count
                await self.flush()
                break
            self.count = snapshot + 1
        """
    ) == [("self.count", 6)]


def test_code_after_an_endless_loop_is_unreachable():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            while True:
                await self.flush()
            self.count = snapshot + 1
        """
    ) == []


def test_an_async_for_step_awaits_between_iterations():
    # the iteration step is an await, so iteration k's read is stale at
    # iteration k+1's write; the same body under a plain ``for`` is clean
    source = """
        async def f(self, stream):
            snapshot = 0
            {loop} item in stream:
                self.total = snapshot + 1
                snapshot = self.total
        """
    assert source_stale_writes(source.format(loop="async for")) == [
        ("self.total", 4)
    ]
    assert source_stale_writes(source.format(loop="for")) == []


def test_a_break_after_an_earlier_iterations_await_carries_the_aged_read():
    # the first pass breaks before any await; a later pass breaks after
    # one, and the state the break leaves with is the union of both
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            while True:
                if self.done:
                    break
                await self.tick()
            self.count = snapshot + 1
        """
    ) == [("self.count", 7)]


def test_continue_carries_its_state_to_the_next_iteration():
    # the only path on which the aged read reaches the loop head is the
    # ``continue``; the fall-through path resets the local
    assert source_stale_writes(
        """
        async def f(self, batches):
            snapshot = 0
            for batch in batches:
                self.total = snapshot + 1
                snapshot = self.total
                if batch:
                    await self.flush()
                    continue
                snapshot = 0
        """
    ) == [("self.total", 4)]


def test_raise_without_a_handler_leaves_through_finally():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            try:
                await self.flush()
                raise ValueError
            finally:
                self.count = snapshot + 1
        """
    ) == [("self.count", 7)]


@pytest.mark.parametrize(
    "source, expected",
    [
        # __aenter__ awaits: a read before the block is stale inside it
        (
            """
            async def f(self, session):
                snapshot = self.count
                async with session:
                    self.count = snapshot + 1
            """,
            [("self.count", 4)],
        ),
        # __aexit__ awaits: a read inside the block is stale after it
        (
            """
            async def f(self, session):
                async with session:
                    snapshot = self.count
                self.count = snapshot + 1
            """,
            [("self.count", 4)],
        ),
        # a plain ``with`` awaits neither on enter nor on exit
        (
            """
            async def f(self, session):
                with session:
                    snapshot = self.count
                self.count = snapshot + 1
            """,
            [],
        ),
    ],
    ids=["enter", "exit", "sync"],
)
def test_async_with_awaits_on_enter_and_exit(source, expected):
    assert source_stale_writes(source) == expected


def test_a_sync_lock_on_both_sides_suppresses():
    assert source_stale_writes(
        """
        async def f(self):
            with self._lock:
                snapshot = self.count
                await self.flush()
                self.count = snapshot + 1
        """
    ) == []


def test_a_lock_taken_only_at_the_write_does_not_guard_it():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            await self.flush()
            async with self._lock:
                self.count = snapshot + 1
        """
    ) == [("self.count", 5)]


def test_nested_locks_accumulate_and_one_in_common_suppresses():
    source = """
        async def f(self):
            async with self._db_lock:
                async with self._stats_mutex:
                    snapshot = self.count
            await self.flush()
            async with self.{lock}:
                self.count = snapshot + 1
        """
    assert source_stale_writes(source.format(lock="_stats_mutex")) == []
    assert source_stale_writes(source.format(lock="_other_lock")) == [
        ("self.count", 7)
    ]


def test_dataflow_lock_on_both_sides_suppresses():
    assert source_stale_writes(
        """
        async def f(self):
            async with self._lock:
                snapshot = self.count
                await self.flush()
                self.count = snapshot + 1
        """
    ) == []


def test_a_lock_held_only_at_the_read_does_not_guard_the_write():
    assert source_stale_writes(
        """
        async def f(self):
            async with self._lock:
                snapshot = self.count
            await self.flush()
            self.count = snapshot + 1
        """
    ) == [("self.count", 5)]


def test_a_nested_functions_await_does_not_age_the_outer_read():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            async def inner():
                await self.flush()
            self.count = snapshot + 1
        """
    ) == []


def test_dataflow_reread_after_await_is_clean():
    assert source_stale_writes(
        """
        async def f(self):
            await self.flush()
            self.count = self.count + 1
        """
    ) == []


def test_dataflow_comprehension_variable_does_not_alias_loop_variable():
    # regression: a listcomp variable named like an outer loop variable
    # must not inherit that variable's aged taints (the live.py
    # discovery-loop false positive).  `fresh` below derives from nothing
    # tainted — the comp-scoped `peer` is not the outer `peer`
    assert source_stale_writes(
        """
        async def f(self):
            while True:
                found = self.peers
                await self.refresh()
                for peer in found:
                    self.note(peer)
                fresh = [peer for peer in self.others() if peer.alive]
                self.peers = fresh
        """
    ) == []


def test_an_async_comprehension_in_a_nested_def_does_not_age_the_outer_read():
    assert source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            def helper():
                return [x async for x in self.stream()]
            self.count = snapshot + 1
        """
    ) == []


def test_one_statement_that_reads_awaits_and_writes_is_a_direct_race():
    assert source_stale_writes(
        """
        async def f(self):
            self.count = self.count + await self.delta()
        """
    ) == [("self.count", 2)]
    assert source_stale_writes(
        """
        async def f(self):
            self.count += await self.delta()
        """
    ) == [("self.count", 2)]


def test_a_locked_direct_read_modify_write_is_clean():
    assert source_stale_writes(
        """
        async def f(self):
            async with self._lock:
                self.count += await self.delta()
        """
    ) == []


def test_a_declared_module_global_is_shared_state():
    assert source_stale_writes(
        """
        COUNT = 0

        async def f():
            global COUNT
            snapshot = COUNT
            await flush()
            COUNT = snapshot + 1
        """
    ) == [("COUNT", 7)]


def test_a_local_that_shadows_a_global_is_private():
    assert source_stale_writes(
        """
        COUNT = 0

        async def f(self):
            COUNT = self.base
            snapshot = COUNT
            await self.flush()
            COUNT = snapshot + 1
            return COUNT
        """
    ) == []


def test_an_accessor_read_feeds_a_mutator_write():
    # ``copy`` reads the container's state and ``extend`` mutates it; an
    # opaque method call (``summary``) reads nothing the walk can track
    source = """
        async def f(self):
            pending = self.queue.{method}()
            await self.flush()
            self.queue.extend(pending)
        """
    assert source_stale_writes(source.format(method="copy")) == [
        ("self.queue", 4)
    ]
    assert source_stale_writes(source.format(method="summary")) == []
