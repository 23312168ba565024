"""CRYPTO-BYTES: the wire-format layers speak bytes, never str.

RLP, RLPx framing, and every crypto primitive operate on byte strings;
a stray ``str`` produces comparisons that are silently always-False
(``b"\\x00" == "\\x00"``) or TypeErrors deep inside a handshake.  This
rule does lightweight local type inference — parameter/variable
annotations plus literal assignments — and flags str/bytes mixing in
comparisons, ``+`` concatenation, and parameter defaults.
"""

from __future__ import annotations

from typing import Iterator, Optional

import ast

from repro.devtools.astutil import dotted_name, walk_stopping_at_functions
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _annotation_type(annotation: ast.AST | None) -> Optional[str]:
    """``"bytes"`` / ``"str"`` for an annotation, unwrapping Optional/unions."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    name = dotted_name(annotation)
    if name in ("bytes", "bytearray", "memoryview"):
        return "bytes"
    if name == "str":
        return "str"
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # X | None: the non-None side decides
        sides = [_annotation_type(annotation.left), _annotation_type(annotation.right)]
        sides = [side for side in sides if side is not None]
        return sides[0] if len(sides) == 1 else None
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base in ("Optional", "typing.Optional"):
            return _annotation_type(annotation.slice)
    return None


def _literal_type(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bytes):
            return "bytes"
        if isinstance(node.value, str):
            return "str"
    if isinstance(node, ast.JoinedStr):
        return "str"
    return None


class _TypeEnv:
    """str/bytes types for local names, from annotations and literals."""

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    def add_function_params(self, func: ast.AST) -> None:
        arguments = func.args
        for arg in (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        ):
            inferred = _annotation_type(arg.annotation)
            if inferred is not None:
                self.names[arg.arg] = inferred

    def observe(self, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            inferred = _annotation_type(stmt.annotation)
            if inferred is not None:
                self.names[stmt.target.id] = inferred
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            inferred = _literal_type(stmt.value)
            if isinstance(target, ast.Name) and inferred is not None:
                self.names[target.id] = inferred

    def infer(self, node: ast.AST) -> Optional[str]:
        literal = _literal_type(node)
        if literal is not None:
            return literal
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Call):
            target = dotted_name(node.func)
            if target is not None:
                tail = target.rsplit(".", 1)[-1]
                if tail == "decode":
                    return "str"
                if tail == "encode":
                    return "bytes"
                if target == "bytes":
                    return "bytes"
                if target == "str":
                    return "str"
        return None


@register
class CryptoBytesHygiene(Rule):
    code = "CRYPTO-BYTES"
    description = (
        "in repro.crypto / repro.rlp / repro.rlpx: no str/bytes comparisons "
        "(always unequal), no str defaults on bytes parameters, no `+` "
        "concatenation mixing str- and bytes-typed values"
    )
    scope = ("crypto", "rlp", "rlpx")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree, _TypeEnv())

    def _check_scope(
        self, module: ModuleSource, scope: ast.AST, env: _TypeEnv
    ) -> Iterator[Finding]:
        if isinstance(scope, _FunctionNode):
            env.add_function_params(scope)
            yield from self._check_defaults(module, scope)
        body_nodes = list(walk_stopping_at_functions(scope))
        for node in body_nodes:
            env.observe(node)
        for node in body_nodes:
            if isinstance(node, ast.Compare):
                yield from self._check_compare(module, env, node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                yield from self._check_concat(module, env, node)
        # recurse into every function defined in this scope (including class
        # methods); each one starts from a copy of the enclosing env, the
        # lint approximation of closure capture
        for node in body_nodes:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FunctionNode):
                    nested = _TypeEnv()
                    nested.names.update(env.names)
                    yield from self._check_scope(module, child, nested)

    def _check_defaults(
        self, module: ModuleSource, func: ast.AST
    ) -> Iterator[Finding]:
        arguments = func.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        for arg, default in zip(positional[::-1], arguments.defaults[::-1]):
            yield from self._default_mismatch(module, arg, default)
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
            if default is not None:
                yield from self._default_mismatch(module, arg, default)

    def _default_mismatch(
        self, module: ModuleSource, arg: ast.arg, default: ast.AST
    ) -> Iterator[Finding]:
        if _annotation_type(arg.annotation) == "bytes" and _literal_type(
            default
        ) == "str":
            yield self.finding(
                module,
                default.lineno,
                default.col_offset,
                f"parameter `{arg.arg}` is annotated bytes but defaults to a "
                "str literal; use b\"...\"",
            )

    def _check_compare(
        self, module: ModuleSource, env: _TypeEnv, node: ast.Compare
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        interesting = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, interesting):
                continue
            types = {env.infer(left), env.infer(right)}
            if types == {"bytes", "str"}:
                yield self.finding(
                    module,
                    left.lineno,
                    left.col_offset,
                    "comparison mixes str and bytes; it is always unequal at "
                    "runtime",
                )

    def _check_concat(
        self, module: ModuleSource, env: _TypeEnv, node: ast.BinOp
    ) -> Iterator[Finding]:
        types = {env.infer(node.left), env.infer(node.right)}
        if types == {"bytes", "str"}:
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                "`+` mixes str- and bytes-typed values; this raises TypeError "
                "at runtime",
            )
