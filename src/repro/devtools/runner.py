"""Walk paths, parse modules, run every applicable rule, collect findings.

Two rule shapes run here: per-module :class:`~repro.devtools.registry.Rule`
checks (one parsed file at a time) and whole-tree
:class:`~repro.devtools.registry.ProjectRule` passes, which receive every
parsed module of the run at once so they can resolve cross-file facts.
The runner parses each file exactly once, applies suppression comments
to both shapes and counts what was suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.devtools.findings import Finding
from repro.devtools.registry import ProjectRule, all_rules
from repro.devtools.source import ModuleSource

#: directories never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist"}

#: pseudo-rule code for unparseable files (not suppressible)
PARSE_ERROR = "PARSE-ERROR"


@dataclass
class LintRun:
    """Everything one lint invocation produced."""

    findings: list = field(default_factory=list)
    #: findings silenced by ``# reprolint: disable[-file]=`` comments
    suppressed: int = 0
    checked_files: list = field(default_factory=list)


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS & set(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _parse(path: Path) -> tuple[Optional[ModuleSource], Optional[Finding]]:
    try:
        return ModuleSource.parse(path), None
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", None) or 1
        offset = getattr(exc, "offset", None) or 1
        return None, Finding(
            path=str(path),
            line=line,
            col=offset,
            code=PARSE_ERROR,
            message=f"cannot parse file: {exc.msg if hasattr(exc, 'msg') else exc}",
        )


def run_paths(paths: Iterable[Path | str]) -> LintRun:
    """Lint files/directories and return the full run record."""
    rules = all_rules()
    module_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    run = LintRun(checked_files=iter_python_files(paths))

    modules: dict[str, ModuleSource] = {}
    for path in run.checked_files:
        module, error = _parse(path)
        if error is not None:
            run.findings.append(error)
            continue
        assert module is not None
        modules[str(path)] = module
        for rule in module_rules:
            if not rule.applies_to(path):
                continue
            for finding in rule.check(module):
                if module.is_suppressed(finding.line, finding.code):
                    run.suppressed += 1
                else:
                    run.findings.append(finding)

    all_modules = list(modules.values())
    for rule in project_rules:
        in_scope = [m for m in all_modules if rule.applies_to(m.path)]
        for finding in rule.check_project(in_scope):
            module = modules.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.line, finding.code
            ):
                run.suppressed += 1
            else:
                run.findings.append(finding)

    run.findings.sort()
    return run


def lint_paths(paths: Iterable[Path | str]) -> list[Finding]:
    """Lint files/directories; the programmatic entry point used by tests."""
    return run_paths(paths).findings
