"""The unit of linter output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, pointing at ``path:line:col``.

    Ordering is (path, line, col, code) so reports are stable regardless
    of rule execution order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
