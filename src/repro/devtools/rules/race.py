"""RACE: await-boundary interleaving hazards, found flow-sensitively.

An ``await`` is the only point where another task can run, which makes
it the only place a single-process asyncio program can race itself.  The
sharded crawler's correctness argument (PR 5) is exactly that every
NodeDB mutation is single-writer and every shard touches only its own
state — but that contract dies silently the first time somebody writes

    count = self.count
    await self.flush()
    self.count = count + 1      # another task's increment just vanished

so the window is a lint error, not a review note.  Three shapes:

``RACE-RMW``
    A write of ``self.*`` / module-global state fed by a value that was
    read *before* an await (directly, through a chain of locals, or
    loop-carried from the previous iteration).  Detected with the
    CFG/taint machinery in :mod:`repro.devtools.dataflow`; holding the
    same asyncio lock at the read and the write suppresses it.

``RACE-STALE``
    Double-checked state gone stale: a branch tests shared state, then
    awaits, then writes that same state inside the branch — the classic
    ``if self.session is None: self.session = await connect()`` where
    two tasks both pass the check and both connect.  A write under a
    lock is exempt (the lock-then-recheck idiom).

``RACE-LOCK``
    A *synchronous* lock held across an await (``with self._lock:``
    containing ``await``): the lock is held while the event loop runs
    other tasks, so any of them touching the same lock deadlocks the
    loop — and a threading lock never yields at all.

Classes whose name contains ``Writer`` are exempt from RACE-RMW and
RACE-STALE: they *are* the single-writer serialization point the
invariant funnels everything through (same exemption SHARD-SAFE uses).
"""

from __future__ import annotations

from typing import Iterator, Optional

import ast

from repro.devtools.cfg import build_cfg, lock_name, node_awaits
from repro.devtools.dataflow import SymbolModel, module_globals, stale_writes
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource


def _async_functions_with_context(
    tree: ast.Module,
) -> Iterator[tuple[ast.AsyncFunctionDef, Optional[ast.ClassDef]]]:
    """Every async def plus its enclosing class (None at module level)."""

    def walk(node: ast.AST, cls: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            elif isinstance(child, ast.AsyncFunctionDef):
                yield child, cls
                yield from walk(child, cls)
            elif isinstance(child, ast.FunctionDef):
                yield from walk(child, cls)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)


def _is_writer_class(cls: Optional[ast.ClassDef]) -> bool:
    return cls is not None and "writer" in cls.name.lower()


@register
class AwaitBoundaryRaces(Rule):
    code = "RACE-RMW"
    description = (
        "no read-modify-write of self.*/module state across an await "
        "outside a *Writer class: a value read before an await is stale "
        "by the time it is written back unless the same asyncio lock "
        "guards both sides"
    )
    scope = None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        globals_ = module_globals(module.tree)
        for func, cls in _async_functions_with_context(module.tree):
            if _is_writer_class(cls):
                continue
            cfg = build_cfg(func)
            model = SymbolModel(func, globals_)
            for stale in stale_writes(cfg, model):
                where = f"{cls.name}.{func.name}" if cls else func.name
                origin = (
                    "read on the same line"
                    if stale.via == "direct"
                    else f"read at line {stale.read_line}"
                )
                yield self.finding(
                    module,
                    stale.write_line,
                    stale.write_col,
                    f"write of {stale.symbol} in {where} uses a value "
                    f"{origin} that crossed an await; another task can "
                    "interleave at every await, so fold through a writer "
                    "class, guard both sides with one asyncio lock, or "
                    "re-read after the await",
                )


@register
class DoubleCheckedStale(Rule):
    code = "RACE-STALE"
    description = (
        "a branch that tests self.*/module state, awaits, then writes the "
        "same state acts on a stale check — two tasks can both pass the "
        "test; re-check under an asyncio lock before writing"
    )
    scope = None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        globals_ = module.tree and module_globals(module.tree)
        for func, cls in _async_functions_with_context(module.tree):
            if _is_writer_class(cls):
                continue
            model = SymbolModel(func, globals_ or set())
            yield from self._scan_body(module, func.body, model, cls, func, ())

    def _scan_body(
        self, module, stmts, model, cls, func, locks
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                tested = self._tested_symbols(stmt.test, model)
                if tested:
                    yield from self._scan_region(
                        module, stmt.body, model, tested, cls, func,
                        locks=locks,
                    )
                yield from self._scan_body(
                    module, stmt.body, model, cls, func, locks
                )
                yield from self._scan_body(
                    module, stmt.orelse, model, cls, func, locks
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # separate scope, scanned on its own
            else:
                acquired = locks
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    # the lock-then-recheck idiom: checks nested under an
                    # acquired lock are not double-checked races
                    acquired = locks + tuple(
                        name
                        for item in stmt.items
                        if (name := lock_name(item.context_expr)) is not None
                    )
                for child_body in _sub_bodies(stmt):
                    yield from self._scan_body(
                        module, child_body, model, cls, func, acquired
                    )

    def _scan_region(
        self, module, stmts, model, tested, cls, func, awaited=False, locks=()
    ) -> Iterator[Finding]:
        """Walk an if-body in order: an await followed by a write of a
        tested symbol (outside any lock) is the stale-check pattern."""
        from repro.devtools.cfg import CFGNode
        from repro.devtools.dataflow import effects

        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stmt_awaits = node_awaits(stmt)
            acquired = tuple(locks)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                names = [
                    name
                    for item in stmt.items
                    if (name := lock_name(item.context_expr)) is not None
                ]
                acquired = acquired + tuple(names)
            # writes of a tested symbol on this statement itself
            pseudo = CFGNode(index=0, stmt=stmt, kind=_kind_of(stmt))
            eff = effects(pseudo, model)
            written = eff.writes & tested
            straddles = awaited or stmt_awaits
            if written and straddles and not acquired:
                symbol = sorted(written, key=str)[0]
                where = f"{cls.name}.{func.name}" if cls else func.name
                yield self.finding(
                    module,
                    stmt.lineno,
                    stmt.col_offset,
                    f"branch in {where} tested {symbol} before an await and "
                    "writes it after: the check is stale by write time "
                    "(double-checked state); re-check under an asyncio lock",
                )
            awaited = awaited or stmt_awaits
            for child_body in _sub_bodies(stmt):
                child_locks = acquired if isinstance(
                    stmt, (ast.With, ast.AsyncWith)
                ) else tuple(locks)
                for finding in self._scan_region(
                    module,
                    child_body,
                    model,
                    tested,
                    cls,
                    func,
                    awaited=awaited,
                    locks=child_locks,
                ):
                    yield finding
                # awaits inside the child region also stale later siblings
                if any(node_awaits(inner) for inner in _flat(child_body)):
                    awaited = True

    @staticmethod
    def _tested_symbols(test: ast.AST, model: SymbolModel) -> set:
        symbols = set()
        for sub in ast.walk(test):
            if isinstance(sub, ast.Lambda):
                continue
            symbol = model.symbol_of(sub)
            if symbol is not None and isinstance(
                getattr(sub, "ctx", ast.Load()), ast.Load
            ):
                symbols.add(symbol)
        return symbols


def _kind_of(stmt: ast.stmt) -> str:
    """The CFG node kind a statement's own expressions evaluate under."""
    if isinstance(stmt, (ast.If, ast.While)):
        return "test"
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return "iter"
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return "enter"
    return "stmt"


def _sub_bodies(stmt: ast.stmt) -> list:
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        sub = getattr(stmt, attr, None)
        if isinstance(sub, list) and not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bodies.append(sub)
    handlers = getattr(stmt, "handlers", None)
    if handlers:
        bodies.extend(handler.body for handler in handlers)
    return bodies


def _flat(stmts) -> Iterator[ast.stmt]:
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for body in _sub_bodies(stmt):
            yield from _flat(body)


@register
class SyncLockAcrossAwait(Rule):
    code = "RACE-LOCK"
    description = (
        "a synchronous `with <lock>:` must not contain an await: the lock "
        "stays held while the event loop schedules other tasks (deadlock "
        "with any task wanting the same lock, and a threading lock blocks "
        "the loop outright); use `async with asyncio.Lock()` instead"
    )
    scope = None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            names = [
                name
                for item in node.items
                if (name := lock_name(item.context_expr)) is not None
            ]
            if not names:
                continue
            if any(node_awaits(inner) for inner in _flat(node.body)):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"synchronous lock {names[0]} held across an await; the "
                    "event loop keeps running other tasks while the lock is "
                    "held — acquire an asyncio.Lock with `async with` "
                    "instead",
                )
