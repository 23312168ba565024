"""The reach ledger is well-formed (``tests/reach.py`` checks that it is
complete; this checks each line statically, so it runs on every Python).

Every line names a def or method that exists under ``src/repro``, its bin
(A: a product path no shipped run triggers; B: a harness or oracle a test
or benchmark calls) and a reason; a bin B reason names a file that exists
and refers to the function, its class, or the harness entry point the
reason names in backquotes.
"""

import ast
import re

from tests.reach import SRC, read_ledger

BINS = ("A", "B")
CALLER = re.compile(r"\b(?:tests|benchmarks|examples)/[\w/.-]+\.py\b")
ENTRY = re.compile(r"`(\w+)`")
ROOT = SRC.parent


def _qualnames(tree: ast.AST) -> set:
    """``co_qualname`` of every def and method in a module."""
    names = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def test_every_line_names_a_function_its_bin_and_a_reason():
    ledger = read_ledger()
    assert ledger
    qualnames = {}
    problems = []
    for key, (kind, reason) in sorted(ledger.items()):
        relpath, qualname = key.split("::")
        path = SRC / relpath
        if not path.is_file():
            problems.append(f"{key}: no module {relpath}")
            continue
        if relpath not in qualnames:
            qualnames[relpath] = _qualnames(ast.parse(path.read_text(encoding="utf-8")))
        # a property setter shares its getter's qualname and gets a "'"
        if qualname.rstrip("'") not in qualnames[relpath]:
            problems.append(f"{key}: no such function")
        if kind not in BINS:
            problems.append(f"{key}: bin {kind!r} is not A or B")
        if not reason.strip():
            problems.append(f"{key}: no reason")
    assert not problems, "\n".join(problems)


def test_a_bin_b_line_names_a_file_that_calls_the_function():
    problems = []
    for key, (kind, reason) in sorted(read_ledger().items()):
        if kind != "B":
            continue
        callers = CALLER.findall(reason)
        if not callers:
            problems.append(f"{key}: the reason names no test or benchmark file")
            continue
        missing = [caller for caller in callers if not (ROOT / caller).is_file()]
        if missing:
            problems.append(f"{key}: {', '.join(missing)} does not exist")
            continue
        # the function, its class, or the entry point the reason names in
        # backquotes (a private helper is reached through its harness)
        names = [part for part in key.rstrip("'").split("::")[1].split(".")
                 if part != "<locals>"] + ENTRY.findall(reason)
        refers = re.compile(rf"\b(?:{'|'.join(map(re.escape, names))})\b")
        if not any(refers.search((ROOT / caller).read_text(encoding="utf-8"))
                   for caller in callers):
            problems.append(f"{key}: none of {', '.join(callers)} refers to it")
    assert not problems, "\n".join(problems)
