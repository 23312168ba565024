"""EXC-SILENT: no silent broad exception swallowing anywhere in src/.

Henningsen et al. and DEthna both trace topology-measurement artefacts to
client bugs that were *invisible* because an over-broad handler ate the
evidence.  Narrow, intentional ``except (FooError, BarError): pass``
blocks are fine; ``except:`` and ``except Exception: pass`` are not.
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.devtools.astutil import dotted_name
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource

_BROAD = {"Exception", "BaseException"}


def _is_silencer_body(body: list[ast.stmt]) -> bool:
    """True when the handler body does nothing at all."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


@register
class SilentExcept(Rule):
    """Bare `except:` is always an error; `except Exception:` (or
    BaseException) whose body is only pass/... silently destroys the
    evidence of the failure."""

    code = "EXC-SILENT"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "bare `except:` catches everything including SystemExit "
                    "and KeyboardInterrupt; name the exceptions",
                )
                continue
            elts = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {dotted_name(elt) for elt in elts}
            if names & _BROAD and _is_silencer_body(node.body):
                broad = ", ".join(sorted(names & _BROAD))
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"`except {broad}: pass` silently swallows every failure; "
                    "narrow the exception types or handle the error",
                )
