"""TASK-LIFE: every spawned task has an owner; supervisors survive errors.

``asyncio.create_task`` detaches a coroutine from the spawning control
flow.  If nothing retains the returned handle — no await, no gather, no
``add_done_callback``, not stored anywhere — the task becomes an orphan:
its exception is silently parked on a garbage-collected Task object and
surfaces (if ever) as a cryptic "Task exception was never retrieved" at
interpreter exit.  PR 3 papered over exactly this class of bug at
*runtime* with done-callback counters; this pass makes the missing
owner a lint error at review time.

``TASK-LIFE-ORPHAN``
    A ``create_task``/``ensure_future`` call whose result is discarded:
    a bare expression statement, an assignment to ``_``, or an
    assignment to a local that the function never reads again.  Passing
    the handle onward (``self._tasks.add(create_task(...))``, gather
    arguments, return values) or storing it on ``self`` counts as
    retention — whoever holds it inherits the supervision duty.

``TASK-LIFE-GATHER``
    ``await asyncio.gather(...)`` inside a loop without
    ``return_exceptions=True``: the first child failure tears down the
    whole supervision iteration and cancels nothing cleanly, exactly the
    interleaving that hostile churn exercises.  One-shot gathers outside
    loops may legitimately want fail-fast, so only loop bodies count.
"""

from __future__ import annotations

from typing import Iterator, Optional

import ast

from repro.devtools.astutil import (
    dotted_name,
    import_aliases,
    resolve_call,
    walk_stopping_at_functions,
)
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource

#: calls that detach a coroutine into a free-running task
_SPAWNERS = {"asyncio.create_task", "asyncio.ensure_future"}


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _parent_map(func: ast.AST) -> dict:
    parents: dict = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_spawn(call: ast.Call, aliases: dict) -> bool:
    target = resolve_call(call.func, aliases)
    if target in _SPAWNERS:
        return True
    # `loop.create_task(...)` — but not TaskGroup.create_task, which
    # retains its children by construction
    if isinstance(call.func, ast.Attribute) and call.func.attr == "create_task":
        receiver = dotted_name(call.func.value)
        return receiver is not None and receiver.split(".")[-1].endswith("loop")
    return False


def _name_is_read(func: ast.AST, name: str) -> bool:
    """Is ``name`` ever loaded anywhere in the function (incl. closures)?"""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Name)
            and node.id == name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
    return False


@register
class OrphanTask(Rule):
    code = "TASK-LIFE-ORPHAN"
    description = (
        "the handle returned by asyncio.create_task/ensure_future must be "
        "retained (stored, awaited, gathered, passed on, or given a "
        "done-callback); a discarded handle is a task whose exceptions "
        "vanish"
    )
    scope = None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for func in _functions(module.tree):
            parents = _parent_map(func)
            for node in walk_stopping_at_functions(func):
                if not (isinstance(node, ast.Call) and _is_spawn(node, aliases)):
                    continue
                verdict = self._classify(node, parents, func)
                if verdict is not None:
                    yield self.finding(
                        module, node.lineno, node.col_offset, verdict
                    )

    def _classify(
        self, call: ast.Call, parents: dict, func: ast.AST
    ) -> Optional[str]:
        """None when the spawned task is retained, else the finding text."""
        spawn = dotted_name(call.func) or "create_task"
        node: ast.AST = call
        while True:
            parent = parents.get(node)
            if parent is None or parent is func:
                return None  # structurally odd; give the benefit of the doubt
            if isinstance(parent, ast.Await):
                return None  # awaited in place — supervised
            if isinstance(parent, ast.Call):
                return None  # handle passed onward (gather, set.add, …)
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return None  # caller inherits the handle
            if isinstance(parent, ast.Expr):
                return (
                    f"{spawn}(...) result discarded: the task runs "
                    "unsupervised and its exceptions vanish; retain the "
                    "handle and add a done-callback or await/gather it"
                )
            if isinstance(parent, (ast.Assign, ast.AnnAssign)):
                targets = (
                    parent.targets
                    if isinstance(parent, ast.Assign)
                    else [parent.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Name):
                        return None  # stored on self/container — retained
                    if target.id != "_" and _name_is_read(func, target.id):
                        return None
                names = ", ".join(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
                return (
                    f"{spawn}(...) assigned to `{names}` but the handle is "
                    "never used: the task runs unsupervised and its "
                    "exceptions vanish; store it and add a done-callback "
                    "or await/gather it"
                )
            node = parent  # pass through tuples, conditionals, comprehensions


@register
class GatherSupervision(Rule):
    code = "TASK-LIFE-GATHER"
    description = (
        "asyncio.gather in a supervision loop needs return_exceptions=True: "
        "without it the first child failure aborts the whole round and the "
        "remaining results are lost"
    )
    scope = None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for func in _functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            seen: set = set()
            for loop in walk_stopping_at_functions(func):
                if not isinstance(loop, (ast.While, ast.For, ast.AsyncFor)):
                    continue
                for node in walk_stopping_at_functions(loop):
                    if id(node) in seen or not isinstance(node, ast.Call):
                        continue
                    if resolve_call(node.func, aliases) != "asyncio.gather":
                        continue
                    seen.add(id(node))
                    if any(
                        kw.arg == "return_exceptions" for kw in node.keywords
                    ):
                        continue
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        "asyncio.gather(...) in a supervision loop without "
                        "return_exceptions=True: one child failure aborts "
                        "the round and discards every other result",
                    )
