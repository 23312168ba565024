"""Per-function control-flow graphs with await points marked.

The flow-aware rule families (RACE, and the dataflow scaffolding under
:mod:`repro.devtools.dataflow`) need to know *what can run between two
statements*: an ``await`` is the only place another task can interleave,
so "read, await, write" is a race window while "read, write, await" is
not.  A syntactic visitor cannot answer that — ``try/finally`` routes
around awaits, loops carry state from one iteration's await into the
next iteration's writes — so we build a small statement-level CFG per
function.

Design points (deliberately lint-grade, not compiler-grade):

* One :class:`CFGNode` per *simple* statement, plus dedicated nodes for
  the test of an ``if``/``while``, the iterable of a ``for``, and the
  enter/exit of a ``with``.  Compound statements contribute only their
  control skeleton; their bodies become separate nodes.
* ``node.awaits`` is true when evaluating that node crosses an await:
  an ``ast.Await`` anywhere in the node's own expressions, the iteration
  step of an ``async for``, or the enter/exit of an ``async with``.
  Nested ``def``/``async def``/``lambda`` bodies never contribute await
  edges — a lambda that *contains* an await belongs to some other
  function's CFG (and a plain lambda cannot await at all).
* Every node records the stack of lock-like context managers it executes
  under (``with self._lock:`` / ``async with self._lock:``), so dataflow
  clients can tell a lock-guarded read-modify-write from a bare one.
* ``try`` bodies edge into every handler after *each* statement (any of
  them may raise) and everything funnels through ``finally`` when one
  exists.  ``return``/``raise``/``break``/``continue`` route through the
  enclosing ``finally`` chain before leaving — the pattern that defeats
  straight-line scanners.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

__all__ = ["CFG", "CFGNode", "build_cfg", "lock_name", "node_awaits"]

#: context-manager expressions treated as locks: a dotted name whose final
#: component mentions one of these (``self._lock``, ``registry.mutex``, …)
_LOCKISH = ("lock", "mutex", "sem")


def lock_name(ctx_expr: ast.AST) -> Optional[str]:
    """The lock symbol a ``with`` context expression acquires, if any.

    Returns the dotted name (``self._lock``) for lock-like names, or for
    direct constructions like ``threading.Lock()``.  Non-lock context
    managers (files, spans, sessions) return None.
    """
    target = ctx_expr
    if isinstance(target, ast.Call):
        target = target.func
    parts: list[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    if not parts:
        return None
    dotted = ".".join(reversed(parts))
    last = parts[0].lower()
    if any(token in last for token in _LOCKISH):
        return dotted
    return None


def _own_expressions(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions evaluated *by this node itself* (not nested bodies)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items] + [
            item.optional_vars for item in stmt.items if item.optional_vars
        ]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # decorators/defaults evaluate here; the body is a different CFG
        return list(stmt.decorator_list)
    if isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        # pure control markers: their bodies are separate CFG nodes
        return []
    return [stmt]


def node_awaits(stmt: ast.stmt) -> bool:
    """Does evaluating this statement's own expressions cross an await?"""
    if isinstance(stmt, ast.AsyncFor):
        return True  # __anext__ awaits every iteration
    if isinstance(stmt, ast.AsyncWith):
        return True  # __aenter__ / __aexit__ await
    for expr in _own_expressions(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # pragma: no cover - defensive; walk is flat
            if isinstance(node, ast.Await):
                # awaits inside a nested lambda/def body do not count
                if not _under_nested_function(expr, node):
                    return True
    return False


def _under_nested_function(root: ast.AST, target: ast.AST) -> bool:
    """Is ``target`` inside a nested function/lambda under ``root``?"""
    # Recompute the path by walking with a parent chain; expression trees
    # are tiny so the quadratic worst case is irrelevant.
    def visit(node: ast.AST, inside: bool) -> Optional[bool]:
        if node is target:
            return inside
        nested = inside or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            found = visit(child, nested)
            if found is not None:
                return found
        return None

    return bool(visit(root, False))


@dataclass
class CFGNode:
    """One control-flow point: a simple statement or a control expression."""

    index: int
    stmt: ast.stmt
    #: "stmt" | "test" | "iter" | "enter" | "exit" | "entry" | "terminal"
    kind: str
    #: evaluating this node crosses an await point
    awaits: bool = False
    #: dotted names of lock context managers held while this node runs
    locks: frozenset = frozenset()
    succ: list = field(default_factory=list)

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def link(self, other: "CFGNode") -> None:
        if other is not self and other not in self.succ:
            self.succ.append(other)


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry = self._new(func, "entry")  # type: ignore[arg-type]
        self.exit = self._new(func, "terminal")  # type: ignore[arg-type]

    def _new(self, stmt: ast.stmt, kind: str, locks: frozenset = frozenset()) -> CFGNode:
        node = CFGNode(index=len(self.nodes), stmt=stmt, kind=kind, locks=locks)
        if kind not in ("entry", "terminal"):
            node.awaits = node_awaits(stmt)
        if isinstance(stmt, (ast.AsyncFor,)) and kind == "stmt":
            node.awaits = True
        self.nodes.append(node)
        return node

    def statement_nodes(self) -> Iterator[CFGNode]:
        for node in self.nodes:
            if node.kind not in ("entry", "terminal"):
                yield node

    def await_nodes(self) -> list[CFGNode]:
        return [node for node in self.statement_nodes() if node.awaits]


@dataclass
class _Frame:
    """Loop / finally context the builder threads through recursion."""

    break_targets: list  # nodes that `break` jumps past the loop from
    continue_target: Optional[CFGNode]


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.cfg = CFG(func)
        self.locks: tuple[str, ...] = ()
        self._loop_stack: list[_Frame] = []
        #: entries of enclosing ``finally`` suites, innermost last; escape
        #: statements (return/raise/break/continue) route through these
        self._finally_stack: list[CFGNode] = []

    # -- helpers ------------------------------------------------------------

    def _node(self, stmt: ast.stmt, kind: str = "stmt") -> CFGNode:
        return self.cfg._new(stmt, kind, locks=frozenset(self.locks))

    @staticmethod
    def _connect(frontier: Sequence[CFGNode], node: CFGNode) -> None:
        for prev in frontier:
            prev.link(node)

    def _escape_via_finally(self, node: CFGNode, target: Optional[CFGNode]) -> None:
        """Route an escaping edge through the innermost enclosing finally.

        Lint-grade approximation: the edge lands on the innermost
        ``finally`` entry (whose own frontier continues normally); when
        none encloses, it goes straight to ``target`` (or the CFG exit).
        """
        if self._finally_stack:
            node.link(self._finally_stack[-1])
        elif target is not None:
            node.link(target)
        else:
            node.link(self.cfg.exit)

    # -- statement dispatch -------------------------------------------------

    def build(self) -> CFG:
        body = self.cfg.func.body  # type: ignore[attr-defined]
        frontier = self._body(body, [self.cfg.entry])
        self._connect(frontier, self.cfg.exit)
        return self.cfg

    def _body(
        self, stmts: Sequence[ast.stmt], frontier: list
    ) -> list:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: list) -> list:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self._node(stmt)
            self._connect(frontier, node)
            self._escape_via_finally(node, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = self._node(stmt)
            self._connect(frontier, node)
            if self._loop_stack:
                self._loop_stack[-1].break_targets.append(node)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._node(stmt)
            self._connect(frontier, node)
            if self._loop_stack and self._loop_stack[-1].continue_target:
                node.link(self._loop_stack[-1].continue_target)
            return []
        # simple statement (including nested def/class headers, whose
        # bodies are deliberately not part of this CFG)
        node = self._node(stmt)
        self._connect(frontier, node)
        return [node]

    def _if(self, stmt: ast.If, frontier: list) -> list:
        test = self._node(stmt, "test")
        self._connect(frontier, test)
        then_out = self._body(stmt.body, [test])
        else_out = self._body(stmt.orelse, [test]) if stmt.orelse else [test]
        return then_out + else_out

    def _while(self, stmt: ast.While, frontier: list) -> list:
        test = self._node(stmt, "test")
        self._connect(frontier, test)
        frame = _Frame(break_targets=[], continue_target=test)
        self._loop_stack.append(frame)
        body_out = self._body(stmt.body, [test])
        self._loop_stack.pop()
        self._connect(body_out, test)  # back edge
        exits: list = []
        always_true = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        if not always_true:
            exits.append(test)
        if stmt.orelse:
            exits = self._body(stmt.orelse, exits)
        out = exits + frame.break_targets
        return out

    def _for(self, stmt: ast.For | ast.AsyncFor, frontier: list) -> list:
        head = self._node(stmt, "iter")
        if isinstance(stmt, ast.AsyncFor):
            head.awaits = True
        self._connect(frontier, head)
        frame = _Frame(break_targets=[], continue_target=head)
        self._loop_stack.append(frame)
        body_out = self._body(stmt.body, [head])
        self._loop_stack.pop()
        self._connect(body_out, head)  # back edge: next iteration
        exits = [head]
        if stmt.orelse:
            exits = self._body(stmt.orelse, exits)
        return exits + frame.break_targets

    def _with(self, stmt: ast.With | ast.AsyncWith, frontier: list) -> list:
        enter = self._node(stmt, "enter")
        self._connect(frontier, enter)
        held = self.locks
        acquired = [
            name
            for item in stmt.items
            if (name := lock_name(item.context_expr)) is not None
        ]
        self.locks = held + tuple(acquired)
        body_out = self._body(stmt.body, [enter])
        self.locks = held
        exit_node = self._node(stmt, "exit")
        # the exit node runs with the lock still held (release happens in it)
        exit_node.locks = frozenset(held + tuple(acquired))
        if isinstance(stmt, ast.AsyncWith):
            exit_node.awaits = True
        self._connect(body_out, exit_node)
        return [exit_node]

    def _try(self, stmt: ast.Try, frontier: list) -> list:
        has_finally = bool(stmt.finalbody)
        finally_entry: Optional[CFGNode] = None
        finally_out: list = []
        if has_finally:
            # Build the finally suite first so escape statements inside the
            # body (return/raise/break/continue) have a real node to route
            # through while the body is being built.  Node index order is
            # irrelevant to the fixpoint analyses.
            finally_entry = self._node(stmt, "enter")
            finally_out = self._body(stmt.finalbody, [finally_entry])
            self._finally_stack.append(finally_entry)

        body_start = len(self.cfg.nodes)
        body_out = self._body(stmt.body, list(frontier))
        body_end = len(self.cfg.nodes)
        handler_entries: list[CFGNode] = []
        handler_outs: list = []
        for handler in stmt.handlers:
            entry = self._node(handler, "stmt")  # type: ignore[arg-type]
            handler_entries.append(entry)
            handler_outs.extend(self._body(handler.body, [entry]))
        handler_end = len(self.cfg.nodes)
        # any body statement may raise into any handler
        for node in self.cfg.nodes[body_start:body_end]:
            for entry in handler_entries:
                node.link(entry)
        else_out = (
            self._body(stmt.orelse, body_out) if stmt.orelse else body_out
        )

        if has_finally:
            self._finally_stack.pop()
            assert finally_entry is not None
            self._connect(else_out + handler_outs, finally_entry)
            # an exception escaping the body or a handler still runs finally
            for node in self.cfg.nodes[body_start:handler_end]:
                node.link(finally_entry)
            return list(finally_out)
        return else_out + handler_outs


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG of one function's body (nested defs excluded)."""
    return _Builder(func).build()
