"""OWNERSHIP: shared crawl state is mutated only by its declared writers.

The single-writer contract from PR 5 — every shard's ``DialResult``
reaches the one shared :class:`NodeDB` through one ``NodeDBWriter`` —
was previously policed by SHARD-SAFE's *name* heuristic ("a receiver
called ``db`` calling ``.observe``").  That misses ``out.db.observe``
behind any other name and false-positives on unrelated objects that
happen to be called ``db``.  This pass resolves *types* instead, across
the whole tree at once (it is a :class:`ProjectRule`):

1. every class's attributes are typed from constructor calls
   (``self.db = NodeDB()``), annotated parameters flowing into
   attributes (``def __init__(self, db: "NodeDB")``), and dataclass
   field annotations — including string annotations and classmethod
   constructors like ``NodeDB.load_jsonl(...)``;
2. locals are typed the same way, including the alias idiom
   ``db = self.db``; nested functions inherit the typed
   names of their enclosing scopes (closure semantics), and a name also
   bound to anything unresolvable is dropped rather than guessed;
3. a call of a known mutator method on an expression whose type
   resolves to a tracked class is a mutation site.  Chains resolve two
   hops (``out.db.observe(...)`` through ``ReplayedCrawl.db``).

A mutation site is legal in exactly two places: the tracked class's own
defining module (the mutation point the invariant protects) and the
classes in its declared writer set.  Everything else is a finding.
Unresolvable receivers are never flagged — the pass may miss, it must
not cry wolf.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import ast

from repro.devtools.astutil import dotted_name, import_aliases
from repro.devtools.findings import Finding
from repro.devtools.registry import ProjectRule, register
from repro.devtools.source import ModuleSource

#: tracked shared types -> the classes allowed to mutate them
WRITER_SETS = {
    "NodeDB": frozenset({"NodeDBWriter"}),
    "CrawlStats": frozenset({"NodeDBWriter"}),
}

#: the methods that mutate each tracked type
MUTATORS_BY_TYPE = {
    "NodeDB": frozenset({"observe", "merge", "merge_entry"}),
    "CrawlStats": frozenset(
        {"record_dial", "record_discovery", "watch_bootstrap", "merge"}
    ),
}


class _ProjectTypes:
    """Class-attribute types resolved across every module of the run."""

    def __init__(self, modules: Sequence[ModuleSource]) -> None:
        #: class name -> {attr name -> class name}
        self.attr_types: dict[str, dict[str, str]] = {}
        #: tracked type name -> path of the module defining it
        self.home: dict[str, str] = {}
        self.class_names: set[str] = set(WRITER_SETS)
        # first sweep: discover every class name (so annotations can
        # resolve to project classes for two-hop chains)
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self.class_names.add(node.name)
                    if node.name in WRITER_SETS:
                        self.home[node.name] = str(module.path)
        # second sweep: type the attributes of every class
        for module in modules:
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self.attr_types[node.name] = self._class_attrs(node, aliases)

    # -- type resolution ----------------------------------------------------

    def name_from_annotation(self, ann: Optional[ast.AST]) -> Optional[str]:
        """The known class a type annotation mentions, if any.

        Handles ``NodeDB``, ``Optional[NodeDB]``, ``"NodeDB"`` and
        ``Optional["NodeDB"]`` — the first known class name wins.
        """
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        for node in ast.walk(ann):
            if isinstance(node, ast.Name) and node.id in self.class_names:
                return node.id
            if isinstance(node, ast.Attribute) and node.attr in self.class_names:
                return node.attr
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                nested = self.name_from_annotation(node)
                if nested is not None:
                    return nested
        return None

    def type_of_call(self, call: ast.Call, aliases: dict) -> Optional[str]:
        """The class a constructor-ish call produces.

        ``NodeDB()``, ``database.NodeDB()``, and classmethod factories
        (``NodeDB.load_jsonl(...)``) all resolve: any dotted component
        that is a known class names the result type.
        """
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        parts[0] = aliases.get(parts[0], parts[0]).split(".")[-1]
        for part in parts:
            if part in self.class_names:
                return part
        return None

    def type_of_expr(
        self, expr: ast.AST, locals_: dict, aliases: dict
    ) -> Optional[str]:
        if isinstance(expr, ast.Call):
            return self.type_of_call(expr, aliases)
        if isinstance(expr, ast.Name):
            return locals_.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of_expr(expr.value, locals_, aliases)
            if base is None:
                return None
            return self.attr_types.get(base, {}).get(expr.attr)
        if isinstance(expr, ast.IfExp):
            return self.type_of_expr(
                expr.body, locals_, aliases
            ) or self.type_of_expr(expr.orelse, locals_, aliases)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                resolved = self.type_of_expr(value, locals_, aliases)
                if resolved is not None:
                    return resolved
        return None

    # -- class attribute typing ---------------------------------------------

    def _class_attrs(self, cls: ast.ClassDef, aliases: dict) -> dict:
        attrs: dict[str, str] = {}
        for stmt in cls.body:
            # dataclass fields / class-level annotations
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                resolved = self.name_from_annotation(stmt.annotation)
                if resolved is not None:
                    attrs[stmt.target.id] = resolved
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            locals_ = self._param_types(stmt)
            self_name = stmt.args.args[0].arg if stmt.args.args else None
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                value_type = self.type_of_expr(node.value, locals_, aliases)
                if value_type is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        attrs.setdefault(target.attr, value_type)
                    elif isinstance(target, ast.Name):
                        locals_.setdefault(target.id, value_type)
        return attrs

    def _param_types(self, func: ast.AST) -> dict:
        locals_: dict[str, str] = {}
        args = func.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            resolved = self.name_from_annotation(arg.annotation)
            if resolved is not None:
                locals_[arg.arg] = resolved
        return locals_


@register
class StateOwnership(ProjectRule):
    code = "OWNERSHIP"
    description = (
        "NodeDB and CrawlStats are mutated only inside their defining "
        "module or their declared writer class (NodeDBWriter); mutation "
        "sites are resolved by type across the whole tree, not by receiver "
        "name"
    )
    scope = None

    def check_project(
        self, modules: Sequence[ModuleSource]
    ) -> Iterator[Finding]:
        types = _ProjectTypes(modules)
        for module in modules:
            yield from self._check_module(module, types)

    def _check_module(
        self, module: ModuleSource, types: _ProjectTypes
    ) -> Iterator[Finding]:
        home_types = {
            name
            for name, path in types.home.items()
            if path == str(module.path)
        }
        aliases = import_aliases(module.tree)
        # the module body is the root scope; nested functions inherit the
        # typed names of every enclosing scope (closure semantics), so
        # `out = ReplayedCrawl()` in a function types `out.db` inside a
        # `def flush()` defined within it
        yield from self._check_scope(
            module, module.tree, None, types, aliases, home_types, {}
        )

    def _check_scope(
        self,
        module: ModuleSource,
        scope: ast.AST,
        cls: Optional[ast.ClassDef],
        types: _ProjectTypes,
        aliases: dict,
        home_types: set,
        inherited: dict,
    ) -> Iterator[Finding]:
        locals_: dict[str, str] = dict(inherited)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                resolved = types.name_from_annotation(arg.annotation)
                if resolved is not None:
                    locals_[arg.arg] = resolved
                else:
                    # an unannotated param shadows any inherited name
                    locals_.pop(arg.arg, None)
            if cls is not None and args.args:
                # typing `self` as the enclosing class makes self.X.attr
                # chains resolve through the same attr_types table as locals
                locals_[args.args[0].arg] = cls.name
        # flow-insensitive typing pass; a name that is *also* bound to
        # anything we cannot resolve is dropped entirely — the pass may
        # miss, it must not cry wolf on a stale type
        poisoned: set[str] = set()
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign):
                value_type = types.type_of_expr(node.value, locals_, aliases)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if value_type is not None:
                            locals_[target.id] = value_type
                        else:
                            poisoned.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                resolved = types.name_from_annotation(node.annotation)
                if resolved is not None:
                    locals_[node.target.id] = resolved
                else:
                    poisoned.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        poisoned.add(name.id)
        for name in poisoned:
            locals_.pop(name, None)
        for node in _walk_scope(scope):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            method = node.func.attr
            receiver_type = types.type_of_expr(node.func.value, locals_, aliases)
            if receiver_type not in WRITER_SETS:
                continue
            if method not in MUTATORS_BY_TYPE[receiver_type]:
                continue
            if receiver_type in home_types:
                continue  # the defining module is the mutation point
            if cls is not None and cls.name in WRITER_SETS[receiver_type]:
                continue  # declared writer
            if cls is not None:
                where = f"class {cls.name}"
            elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"function {scope.name}"
            else:
                where = "module scope"
            allowed = ", ".join(sorted(WRITER_SETS[receiver_type]))
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"{receiver_type} mutation .{method}(...) in {where}, "
                f"outside the declared writer set ({allowed}) and outside "
                f"{receiver_type}'s own module; route the mutation through "
                "a writer or add a constructor on the owning class",
            )
        for child, child_cls in _child_scopes(scope, cls):
            yield from self._check_scope(
                module, child, child_cls, types, aliases, home_types, locals_
            )


def _child_scopes(
    scope: ast.AST, cls: Optional[ast.ClassDef]
) -> Iterator[tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Functions directly nested in ``scope``, with their enclosing class.

    Descends through plain statements and class bodies (a method's
    enclosing class is the nearest ``ClassDef``) but not into other
    functions — those are visited by the recursion in ``_check_scope``.
    """
    stack = [(child, cls) for child in ast.iter_child_nodes(scope)]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend((c, node) for c in ast.iter_child_nodes(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, enclosing
        else:
            stack.extend((c, enclosing) for c in ast.iter_child_nodes(node))


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope without descending into nested defs/classes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
