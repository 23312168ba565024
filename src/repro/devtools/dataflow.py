"""Who reads what across awaits: the flow analysis under the RACE family.

An ``await`` is the only point where another task can run, so the RACE
rules need to know what is evaluated before and after one.  This module
provides:

* a symbol model — ``self.X`` attributes and module-level globals are
  the shared state a concurrently-scheduled task could mutate; locals
  are private to the running coroutine;
* per-statement read/write extraction, distinguishing *value* reads
  (subscripts, accessor methods, membership tests, call arguments) from
  opaque method calls, and *writes* (assignments plus known container
  mutators) from reads;
* :func:`stale_writes`, a walk of one function's statements in source
  order that tracks, per local variable, which shared symbols its value
  was derived from, whether an await has happened since the read, and
  which locks were held at the read.  A loop body is walked until the
  state at its head stops growing, so the iteration-k read that races
  the iteration-k+1 write is seen; a ``try`` body's states reach its
  handlers and its ``finally``, and ``return``/``raise`` reach the
  enclosing ``finally``.

Everything here is lint-grade: one level of pointer indirection, no
interprocedural flow (a method call is an opaque value), unions at joins.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

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
    """The expressions a statement evaluates itself (not its nested bodies)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items] + [
            item.optional_vars for item in stmt.items if item.optional_vars
        ]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # decorators evaluate here; the body is another scope
        return list(stmt.decorator_list)
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def node_awaits(stmt: ast.stmt) -> bool:
    """Does evaluating this statement's own expressions cross an await?"""
    if isinstance(stmt, (ast.AsyncFor, ast.AsyncWith)):
        return True  # __anext__ / __aenter__ / __aexit__ await
    for expr in _own_expressions(stmt):
        for node in ast.walk(expr):
            # awaits inside a nested lambda/def body do not count
            if isinstance(node, ast.Await) and not _under_nested_function(
                expr, node
            ):
                return True
    return False


def _under_nested_function(root: ast.AST, target: ast.AST) -> bool:
    """Is ``target`` inside a nested function/lambda under ``root``?"""

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


#: container/queue methods that mutate their receiver in place
MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "put_nowait",
    "remove",
    "setdefault",
    "update",
}

#: methods that return a view/copy of the receiver's state (value reads)
ACCESSORS = {
    "copy",
    "get",
    "get_nowait",
    "items",
    "keys",
    "most_common",
    "qsize",
    "values",
}


@dataclass(frozen=True)
class Symbol:
    """One piece of shared mutable state: ``self.X`` or a module global."""

    kind: str  # "attr" (self.X) | "global"
    name: str

    def __str__(self) -> str:
        return f"self.{self.name}" if self.kind == "attr" else self.name


@dataclass(frozen=True)
class Taint:
    """A local's value derives from ``symbol``, read at ``line``."""

    symbol: Symbol
    line: int
    awaited: bool
    locks: frozenset

    def aged(self) -> "Taint":
        return self if self.awaited else Taint(self.symbol, self.line, True, self.locks)


@dataclass
class StmtEffects:
    """What one statement does to the symbol model."""

    reads: set  # set[Symbol] — value reads of shared state
    writes: set  # set[Symbol] — assignments / container mutations
    #: locals whose value the statement (re)defines, with the symbols (and
    #: tainted locals) their new value derives from
    defines: dict  # local name -> (set[Symbol], set[local names])
    #: locals whose current value the statement uses (call args, rhs, targets)
    uses: set  # set[local names]


def module_globals(tree: ast.Module) -> set[str]:
    """Names bound at module top level (the shared-global symbol space)."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
    return names


def _self_name(func: ast.AST) -> Optional[str]:
    args = getattr(func, "args", None)
    if args is None or not args.args:
        return None
    first = args.args[0].arg
    return first if first in ("self", "cls") else None


def _local_names(func: ast.AST) -> set[str]:
    """Every name bound inside the function (params, assigns, loops, withs)."""
    names: set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    declared: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            # collected separately: ast.walk is breadth-first, so the
            # declaration can be visited before the Name stores it governs
            declared.update(node.names)
    return names - declared


class SymbolModel:
    """Resolves AST expressions to tracked shared-state symbols."""

    def __init__(self, func: ast.AST, globals_: set[str]) -> None:
        self.self_name = _self_name(func)
        self.locals = _local_names(func)
        # a name is a tracked global only when the module binds it and the
        # function does not shadow it with a local
        self.globals = {
            name for name in globals_ if name not in self.locals
        } | set(self._declared_globals(func))

    @staticmethod
    def _declared_globals(func: ast.AST) -> Iterator[str]:
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield from node.names

    def symbol_of(self, expr: ast.AST) -> Optional[Symbol]:
        """The tracked symbol an expression *is* (not merely mentions)."""
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if (
                isinstance(base, ast.Name)
                and self.self_name is not None
                and base.id == self.self_name
            ):
                return Symbol("attr", expr.attr)
            return None
        if isinstance(expr, ast.Name) and expr.id in self.globals:
            return Symbol("global", expr.id)
        return None

    def root_symbol(self, expr: ast.AST) -> Optional[Symbol]:
        """The tracked symbol at the root of an lvalue/receiver chain.

        ``self.x[k]``, ``self.x.field`` and ``self.x`` all root at
        ``self.x``; deeper chains (``self.x.y[k]``) root at ``self.x``
        too — mutating any part of the object graph hung off an attribute
        is a mutation of that attribute's referent.
        """
        node = expr
        while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
            direct = self.symbol_of(node)
            if direct is not None:
                return direct
            node = node.value
        return self.symbol_of(node)


def effects(stmt: ast.stmt, kind: str, model: SymbolModel) -> StmtEffects:
    """Reads/writes/defines/uses of one statement's own expressions.

    ``kind`` says which part of a compound statement evaluates: ``"iter"``
    a ``for``'s iterable (which defines its target), ``"enter"`` a
    ``with``'s context managers (which define its ``as`` names); any
    other kind scans the statement's own expressions.
    """
    reads: set = set()
    writes: set = set()
    defines: dict = {}
    uses: set = set()

    exprs = _own_expressions(stmt)

    def scan_value(expr: ast.AST, into_reads: set, into_uses: set) -> None:
        """Collect value reads of tracked symbols + uses of locals."""
        # names bound by comprehension generators inside this expression
        # are comprehension-scoped, not uses of the same-named function
        # local (a listcomp's `node` must not alias a loop's `node`)
        comp_bound = {
            name.id
            for sub in ast.walk(expr)
            if isinstance(sub, ast.comprehension)
            for name in ast.walk(sub.target)
            if isinstance(name, ast.Name)
        }
        for sub in ast.walk(expr):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested bodies are separate scopes
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in comp_bound:
                    continue
                if sub.id in model.locals:
                    into_uses.add(sub.id)
                elif sub.id in model.globals:
                    into_reads.add(Symbol("global", sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                symbol = model.symbol_of(sub)
                if symbol is None:
                    continue
                # receiver position of a call: only accessor methods and
                # known mutators touch the receiver's *state*; any other
                # `self.x.method()` is opaque (it may not read x's value)
                parent_call = _receiver_call(expr, sub)
                if parent_call is None:
                    into_reads.add(symbol)
                elif parent_call in ACCESSORS:
                    into_reads.add(symbol)
                elif parent_call in MUTATORS:
                    writes.add(symbol)
                # else: opaque method call — neither read nor write

    def record_write_target(target: ast.AST) -> None:
        symbol = model.root_symbol(target)
        if symbol is not None:
            writes.add(symbol)
            # a subscript/attribute store also *uses* the index expressions
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in model.locals:
                        uses.add(sub.id)
                    elif sub.id in model.globals:
                        reads.add(Symbol("global", sub.id))

    if isinstance(stmt, ast.Assign):
        value_reads: set = set()
        value_uses: set = set()
        scan_value(stmt.value, value_reads, value_uses)
        reads |= value_reads
        uses |= value_uses
        for target in stmt.targets:
            if isinstance(target, ast.Name) and target.id in model.locals:
                defines[target.id] = (set(value_reads), set(value_uses))
            else:
                record_write_target(target)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        value_reads, value_uses = set(), set()
        scan_value(stmt.value, value_reads, value_uses)
        reads |= value_reads
        uses |= value_uses
        if isinstance(stmt.target, ast.Name) and stmt.target.id in model.locals:
            defines[stmt.target.id] = (set(value_reads), set(value_uses))
        else:
            record_write_target(stmt.target)
    elif isinstance(stmt, ast.AugAssign):
        value_reads, value_uses = set(), set()
        scan_value(stmt.value, value_reads, value_uses)
        reads |= value_reads
        uses |= value_uses
        target_symbol = model.root_symbol(stmt.target)
        if target_symbol is not None:
            # x += v both reads and writes x
            reads.add(target_symbol)
            writes.add(target_symbol)
            record_write_target(stmt.target)
        elif isinstance(stmt.target, ast.Name) and stmt.target.id in model.locals:
            uses.add(stmt.target.id)
            existing = defines.setdefault(stmt.target.id, (set(), set()))
            existing[0].update(value_reads)
            existing[1].update(value_uses | {stmt.target.id})
    elif isinstance(stmt, (ast.For, ast.AsyncFor)) and kind == "iter":
        value_reads, value_uses = set(), set()
        scan_value(stmt.iter, value_reads, value_uses)
        reads |= value_reads
        uses |= value_uses
        for sub in ast.walk(stmt.target):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                defines[sub.id] = (set(value_reads), set(value_uses))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)) and kind == "enter":
        for item in stmt.items:
            value_reads, value_uses = set(), set()
            scan_value(item.context_expr, value_reads, value_uses)
            reads |= value_reads
            uses |= value_uses
            if item.optional_vars is not None and isinstance(
                item.optional_vars, ast.Name
            ):
                defines[item.optional_vars.id] = (
                    set(value_reads),
                    set(value_uses),
                )
    else:
        for expr in exprs:
            scan_value(expr, reads, uses)
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                record_write_target(target)

    return StmtEffects(reads=reads, writes=writes, defines=defines, uses=uses)


def _receiver_call(root: ast.AST, attribute: ast.Attribute) -> Optional[str]:
    """If ``attribute`` is the receiver of ``attribute.method(...)`` inside
    ``root``, return the method name, else None."""
    for sub in ast.walk(root):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.value is attribute
        ):
            return sub.func.attr
    return None


# -- the stale-write analysis ------------------------------------------------


@dataclass(frozen=True)
class StaleWrite:
    """A write of shared state fed by a value read before an await."""

    symbol: Symbol
    write_line: int
    write_col: int
    read_line: int
    #: "local" when the stale value flowed through a variable, "direct"
    #: when a single statement reads, awaits, and writes the same symbol
    via: str


def _absorb(sink: dict, state: dict) -> None:
    """Union ``state``'s taints into ``sink`` in place."""
    for key, taints in state.items():
        sink.setdefault(key, set()).update(taints)


def _join(*states: dict) -> dict:
    out: dict = {}
    for state in states:
        _absorb(out, state)
    return out


class _Walk:
    """One function body in source order; a state maps a local name to the
    set of :class:`Taint` its value carries.  An await ages every taint; a
    (re)definition replaces a local's taints with its new derivation; a
    write of symbol ``V`` that *uses* a local carrying an aged taint of
    ``V`` — with no lock common to the read and the write — is reported."""

    def __init__(self, model: SymbolModel) -> None:
        self.model = model
        self.found: dict[tuple, StaleWrite] = {}
        #: lock names held by the statements being walked
        self.locks: frozenset = frozenset()
        #: per enclosing ``try``: the states its handlers and its
        #: ``finally`` start from (the first is ``None`` once the handlers
        #: are walked, the second when there is no ``finally``)
        self.tries: list[list] = []
        #: per enclosing ``try`` with a ``finally``, up to the end of its
        #: ``else``: the states ``return``/``raise`` carry into it
        self.finallies: list[dict] = []
        #: per enclosing loop: the states ``break`` / ``continue`` leave with
        self.loops: list[tuple[list, list]] = []

    def step(self, stmt: ast.stmt, kind: str, state: dict) -> dict:
        """The state after ``stmt`` (its ``kind`` part) runs from ``state``."""
        locks = self.locks
        eff = effects(stmt, kind, self.model)
        awaits = node_awaits(stmt)
        line = stmt.lineno
        out = {k: set(v) for k, v in state.items()}
        if awaits:
            out = {k: {t.aged() for t in v} for k, v in out.items()}
        for symbol in eff.writes:
            found: Optional[tuple] = None
            for used in sorted(eff.uses):
                for taint in state.get(used, ()):
                    if taint.symbol != symbol:
                        continue
                    if not (taint.awaited or awaits):
                        continue
                    if taint.locks & locks:
                        continue  # same lock held at read and at write
                    found = (taint, "local")
                    break
                if found is not None:
                    break
            if found is None and awaits and symbol in eff.reads and not locks:
                # one statement that reads V, awaits, then stores into V
                found = (Taint(symbol, line, True, frozenset()), "direct")
            if found is not None:
                taint, via = found
                self.found.setdefault(
                    (symbol, line),
                    StaleWrite(symbol, line, stmt.col_offset, taint.line, via),
                )
        for local, (symbols, used_locals) in eff.defines.items():
            new: set = {Taint(symbol, line, awaits, locks) for symbol in symbols}
            for used in used_locals:
                for taint in state.get(used, ()):
                    new.add(taint.aged() if awaits else taint)
            out[local] = new
        # a statement inside a try body can raise into its handlers, and
        # one inside its body or handlers leaves through its finally
        for sinks in self.tries:
            for sink in sinks:
                if sink is not None:
                    _absorb(sink, out)
        return out

    def body(self, stmts: list, state: dict) -> dict:
        for stmt in stmts:
            state = self.statement(stmt, state)
        return state

    def statement(self, stmt: ast.stmt, state: dict) -> dict:
        if isinstance(stmt, ast.If):
            test = self.step(stmt, "test", state)
            return _join(self.body(stmt.body, test), self.body(stmt.orelse, test))
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            enter = self.step(stmt, "enter", state)
            held = self.locks
            self.locks = held | {
                name
                for item in stmt.items
                if (name := lock_name(item.context_expr)) is not None
            }
            inside = self.body(stmt.body, enter)
            # the exit runs with the lock still held (release happens in it)
            out = self.step(stmt, "exit", inside)
            self.locks = held
            return out
        out = self.step(stmt, "stmt", state)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if self.finallies:
                _absorb(self.finallies[-1], out)
            return {}
        if isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loops:
                breaks, continues = self.loops[-1]
                (breaks if isinstance(stmt, ast.Break) else continues).append(out)
            return {}
        return out

    def _loop(self, stmt, state: dict) -> dict:
        kind = "test" if isinstance(stmt, ast.While) else "iter"
        breaks: list = []
        continues: list = []
        head_in = state
        while True:
            head = self.step(stmt, kind, head_in)
            self.loops.append((breaks, continues))
            tail = self.body(stmt.body, head)
            self.loops.pop()
            again = _join(state, tail, *continues)
            if again == head_in:
                break
            head_in = again
        endless = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        exits = {} if endless else head
        return _join(self.body(stmt.orelse, exits), *breaks)

    def _try(self, stmt: ast.Try, state: dict) -> dict:
        sinks: list = [{}, {} if stmt.finalbody else None]
        self.tries.append(sinks)
        if stmt.finalbody:
            self.finallies.append(sinks[1])
        out = self.body(stmt.body, state)
        raised, sinks[0] = sinks[0], None
        handled = [self.body(handler.body, raised) for handler in stmt.handlers]
        self.tries.pop()
        out = _join(self.body(stmt.orelse, out), *handled)
        if not stmt.finalbody:
            return out
        self.finallies.pop()
        return self.body(stmt.finalbody, _join(out, sinks[1]))


def stale_writes(
    func: ast.AsyncFunctionDef, model: SymbolModel
) -> list[StaleWrite]:
    """All writes of a tracked symbol fed by an awaited-over read of it."""
    walk = _Walk(model)
    walk.body(func.body, {})
    return sorted(
        walk.found.values(), key=lambda sw: (sw.write_line, str(sw.symbol))
    )
