"""CFG builder tests on adversarial shapes.

The await-boundary analyses are only as good as the graph under them, so
these tests pin the shapes that defeat straight-line scanners: escape
statements routed through ``finally``, async iteration/context awaits,
nested functions and lambdas that must NOT contribute await edges, and
lock contexts threaded onto the right nodes.
"""

import ast
import textwrap

import pytest

from repro.devtools.cfg import build_cfg, lock_name, node_awaits
from repro.devtools.dataflow import SymbolModel, module_globals, stale_writes


def functions(tree):
    """Every function definition in a module, nested ones included."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def cfg_of(source, name=None):
    tree = ast.parse(textwrap.dedent(source).strip())
    funcs = list(functions(tree))
    func = funcs[0] if name is None else next(f for f in funcs if f.name == name)
    return build_cfg(func)


def reachable(cfg, start=None):
    seen = set()
    stack = [start if start is not None else cfg.entry]
    while stack:
        node = stack.pop()
        if node.index in seen:
            continue
        seen.add(node.index)
        stack.extend(node.succ)
    return seen


def nodes_on_line(cfg, line):
    return [node for node in cfg.statement_nodes() if node.line == line]


# -- await marking ----------------------------------------------------------


def test_plain_await_marks_exactly_its_statement():
    cfg = cfg_of(
        """
        async def f(self):
            a = 1
            await self.flush()
            b = 2
        """
    )
    assert [node.line for node in cfg.await_nodes()] == [3]


def test_async_for_awaits_every_iteration_step():
    cfg = cfg_of(
        """
        async def f(self, stream):
            async for item in stream:
                self.handle(item)
        """
    )
    (head,) = cfg.await_nodes()
    assert head.kind == "iter"
    # the body statement edges back into the iteration step (loop-carried
    # state crosses an await on every round)
    (body,) = nodes_on_line(cfg, 3)
    assert head in body.succ


def test_async_with_awaits_on_enter_and_exit():
    cfg = cfg_of(
        """
        async def f(self, session):
            async with session:
                x = 1
        """
    )
    kinds = sorted(node.kind for node in cfg.await_nodes())
    assert kinds == ["enter", "exit"]


def test_nested_function_awaits_do_not_leak_into_outer_cfg():
    cfg = cfg_of(
        """
        async def outer(self):
            async def inner():
                await self.flush()
            return inner
        """,
        name="outer",
    )
    assert cfg.await_nodes() == []


def test_lambda_bodies_contribute_no_await_edges():
    cfg = cfg_of(
        """
        async def f(self, items):
            key = lambda item: item.weight
            ordered = sorted(items, key=key)
            return ordered
        """
    )
    assert cfg.await_nodes() == []


def test_await_inside_comprehension_is_an_await_of_the_statement():
    cfg = cfg_of(
        """
        async def f(self, targets):
            results = [await self.dial(t) for t in targets]
            return results
        """
    )
    assert [node.line for node in cfg.await_nodes()] == [2]


def test_nested_def_inside_comprehension_scope_still_excluded():
    # a def whose *default argument* awaits would be this function's await;
    # a def whose *body* awaits is not
    src = """
        async def f(self):
            def helper():
                return [x async for x in self.stream()]
            return helper
    """
    cfg = cfg_of(textwrap.dedent(src), name="f")
    assert cfg.await_nodes() == []


# -- try/finally routing ----------------------------------------------------


def test_return_in_try_routes_through_finally():
    cfg = cfg_of(
        """
        async def f(self):
            try:
                return await self.fetch()
            finally:
                self.cleanup()
        """
    )
    (ret,) = nodes_on_line(cfg, 3)
    # the return's only outgoing edge is into the finally suite, not exit
    assert cfg.exit not in ret.succ
    (cleanup,) = nodes_on_line(cfg, 5)
    assert cleanup.index in reachable(cfg, ret)
    # and the finally suite still reaches the function exit
    assert cfg.exit.index in reachable(cfg, cleanup)


def test_raise_in_try_body_reaches_handler_and_finally():
    cfg = cfg_of(
        """
        async def f(self):
            try:
                risky = self.step()
            except ValueError:
                self.on_error()
            finally:
                self.cleanup()
            return 1
        """
    )
    (body_stmt,) = nodes_on_line(cfg, 3)
    (handler_body,) = nodes_on_line(cfg, 5)
    (cleanup,) = nodes_on_line(cfg, 7)
    seen = reachable(cfg, body_stmt)
    assert handler_body.index in seen
    assert cleanup.index in seen


def test_try_finally_around_await_keeps_post_await_path():
    # the shape that defeats linear scanners: the await is inside try,
    # the write after finally must still be reachable from it
    cfg = cfg_of(
        """
        async def f(self):
            snapshot = self.count
            try:
                await self.flush()
            finally:
                self.log()
            self.count = snapshot + 1
        """
    )
    (await_node,) = cfg.await_nodes()
    (write,) = nodes_on_line(cfg, 7)
    assert write.index in reachable(cfg, await_node)


# -- loops ------------------------------------------------------------------


def test_while_true_without_break_never_reaches_exit():
    cfg = cfg_of(
        """
        async def f(self):
            while True:
                await self.tick()
        """
    )
    assert cfg.exit.index not in reachable(cfg)


def test_break_leaves_the_loop():
    cfg = cfg_of(
        """
        async def f(self):
            while True:
                if self.done:
                    break
                await self.tick()
            self.finish()
        """
    )
    (finish,) = nodes_on_line(cfg, 6)
    assert finish.index in reachable(cfg)
    assert cfg.exit.index in reachable(cfg)


def test_loop_carried_await_feeds_next_iteration():
    # iteration k's await must reach iteration k+1's body: back edge exists
    cfg = cfg_of(
        """
        async def f(self, batches):
            for batch in batches:
                snapshot = self.total
                await self.flush()
                self.total = snapshot + len(batch)
        """
    )
    (head,) = nodes_on_line(cfg, 2)
    (write,) = nodes_on_line(cfg, 5)
    assert head in write.succ  # back edge
    assert write.index in reachable(cfg, write)  # write reaches itself


# -- lock contexts ----------------------------------------------------------


def test_lock_context_held_on_body_nodes_only():
    cfg = cfg_of(
        """
        async def f(self):
            before = 1
            with self._lock:
                inside = 2
            after = 3
        """
    )
    (before,) = nodes_on_line(cfg, 2)
    (inside,) = nodes_on_line(cfg, 4)
    (after,) = nodes_on_line(cfg, 5)
    assert before.locks == frozenset()
    assert inside.locks == {"self._lock"}
    assert after.locks == frozenset()


def test_nested_locks_accumulate():
    cfg = cfg_of(
        """
        async def f(self):
            async with self._db_lock:
                async with self._stats_mutex:
                    x = 1
        """
    )
    (x,) = nodes_on_line(cfg, 4)
    assert x.locks == {"self._db_lock", "self._stats_mutex"}


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


# -- the CFG driving dataflow end to end ------------------------------------


def source_stale_writes(source, name=None):
    tree = ast.parse(textwrap.dedent(source).strip())
    funcs = list(functions(tree))
    func = funcs[0] if name is None else next(f for f in funcs if f.name == name)
    model = SymbolModel(func, module_globals(tree))
    return stale_writes(build_cfg(func), model)


def test_dataflow_flags_rmw_through_try_finally():
    found = source_stale_writes(
        """
        async def f(self):
            snapshot = self.count
            try:
                await self.flush()
            finally:
                self.log()
            self.count = snapshot + 1
        """
    )
    assert [(str(s.symbol), s.write_line) for s in found] == [("self.count", 7)]


def test_dataflow_flags_loop_carried_race():
    found = source_stale_writes(
        """
        async def f(self, batches):
            for batch in batches:
                snapshot = self.total
                await self.flush()
                self.total = snapshot + len(batch)
        """
    )
    assert [(str(s.symbol), s.write_line) for s in found] == [("self.total", 5)]


def test_dataflow_lock_on_both_sides_suppresses():
    found = source_stale_writes(
        """
        async def f(self):
            async with self._lock:
                snapshot = self.count
                await self.flush()
                self.count = snapshot + 1
        """
    )
    assert found == []


def test_dataflow_reread_after_await_is_clean():
    found = source_stale_writes(
        """
        async def f(self):
            await self.flush()
            self.count = self.count + 1
        """
    )
    assert found == []


def test_dataflow_comprehension_variable_does_not_alias_loop_variable():
    # regression: a listcomp variable named like an outer loop variable
    # must not inherit that variable's aged taints (the live.py
    # discovery-loop false positive).  `fresh` below derives from nothing
    # tainted — the comp-scoped `peer` is not the outer `peer`
    found = source_stale_writes(
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
    )
    assert found == []
