"""Every ``*Config`` field is a knob some call turns.

A ``@dataclass`` whose name ends in ``Config`` under ``src/repro`` is a
bundle of settings.  A field that no ``<Class>(...)`` call in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` sets — by keyword or by
position — is a constant wearing a knob's clothes: it belongs in a module
constant with the same value and comment.  The scan is static (``ast``
only, nothing imported), so it runs on any supported Python.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")


def _python_files(*tops: str) -> Iterator[Path]:
    for top in tops:
        yield from sorted((ROOT / top).rglob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return False


def config_fields() -> Dict[str, List[str]]:
    """``*Config`` dataclass name → its fields, in declaration order."""
    found: Dict[str, List[str]] = {}
    for path in _python_files("src/repro"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass(node)
            ):
                continue
            fields = [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)
            ]
            assert node.name not in found, f"two classes named {node.name}"
            found[node.name] = fields
    return found


def _called_name(call: ast.Call) -> Optional[str]:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _forwarded_keywords(tree: ast.Module) -> Dict[str, Set[str]]:
    """``**kwargs`` name → the keywords calls in this module pass to the
    function that takes it (``def crawl(world, **kw)`` called as
    ``crawl(w, shards=2)`` forwards ``shards`` into ``Config(**kw)``)."""
    takes: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.args.kwarg:
            takes[node.name] = node.args.kwarg.arg
    forwarded: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) in takes:
            forwarded.setdefault(takes[_called_name(node)], set()).update(
                keyword.arg for keyword in node.keywords if keyword.arg is not None
            )
    return forwarded


def set_fields(classes: Dict[str, List[str]]) -> Set[Tuple[str, str]]:
    """(class, field) pairs some ``<Class>(...)`` call sets."""
    seen: Set[Tuple[str, str]] = set()
    for path in _python_files(*SCANNED):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        forwarded = _forwarded_keywords(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name not in classes:
                continue
            fields = classes[name]
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if index < len(fields):
                    seen.add((name, fields[index]))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    seen.add((name, keyword.arg))
                elif isinstance(keyword.value, ast.Name):
                    for arg in forwarded.get(keyword.value.id, ()):
                        seen.add((name, arg))
    return seen


def test_the_scan_finds_the_config_classes():
    classes = config_fields()
    assert {"NodeFinderConfig", "LiveConfig", "WorldConfig"} <= set(classes)
    assert all(classes.values())


def test_every_config_field_is_set_by_some_call():
    classes = config_fields()
    seen = set_fields(classes)
    unset = [
        f"{name}.{field}"
        for name, fields in sorted(classes.items())
        for field in fields
        if (name, field) not in seen
    ]
    assert not unset, (
        "no call sets these fields; make each a module constant: "
        + ", ".join(unset)
    )
