"""Rule base classes and the global rule registry.

A rule is a class with a ``code`` (the family identifier used in reports
and in ``# reprolint: disable=CODE`` comments), an optional path
``scope`` restricting which packages it runs over, and a ``check``
method yielding :class:`~repro.devtools.findings.Finding` objects for
one parsed module.  Decorating the class with :func:`register` makes the
runner and the CLI pick it up.

:class:`ProjectRule` is the whole-tree variant: its ``check_project``
receives *every* parsed module of the run at once, so it can resolve
facts no single file contains (which class owns which shared object,
who mutates it from where).  The OWNERSHIP family is built on it.

Selectors (``--select`` / ``--ignore``) match either an exact code or a
family prefix: ``RACE`` selects ``RACE-RMW``, ``RACE-STALE`` and
``RACE-LOCK`` alike, because ``RACE-RMW`` starts with ``RACE-``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Type

from repro.devtools.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.source import ModuleSource


class Rule:
    """Base class for one lint rule family."""

    #: family identifier, e.g. ``SIM-DET``; used in output and suppressions
    code: str = ""
    #: one-paragraph rationale shown by ``--list-rules``
    description: str = ""
    #: directory names the rule is restricted to (any match in the path);
    #: ``None`` means the rule applies to every file
    scope: tuple[str, ...] | None = None

    def applies_to(self, path: Path) -> bool:
        if self.scope is None:
            return True
        parts = set(path.parts)
        return any(segment in parts for segment in self.scope)

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "ModuleSource", line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=str(module.path), line=line, col=col, code=self.code, message=message
        )


class ProjectRule(Rule):
    """A rule that analyses the whole parsed tree in one pass.

    The runner parses every file first, then hands the full module list
    to ``check_project``; ``applies_to``/suppressions still apply per
    finding.  ``check`` is unused for project rules.
    """

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, modules: Sequence["ModuleSource"]
    ) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, sorted by code."""
    import repro.devtools.rules  # noqa: F401  (imports register the rules)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def known_codes() -> set[str]:
    import repro.devtools.rules  # noqa: F401

    return set(_REGISTRY)


def selector_matches(code: str, selector: str) -> bool:
    """Does a --select/--ignore selector cover a rule code?

    Exact match, or family prefix: ``RACE`` covers ``RACE-RMW`` because
    the code continues with a ``-`` (so ``RACE`` never covers a
    hypothetical ``RACEY`` family by accident).
    """
    return code == selector or code.startswith(selector + "-")


def unknown_selectors(selectors: Iterable[str]) -> set[str]:
    """The selectors matching no registered rule (usage errors)."""
    codes = known_codes()
    return {
        selector
        for selector in selectors
        if not any(selector_matches(code, selector) for code in codes)
    }


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """The registered rules filtered by ``--select`` / ``--ignore``.

    Both accept exact codes and family prefixes (``RACE`` for every
    ``RACE-*`` rule).
    """
    rules = all_rules()
    if select is not None:
        wanted = list(select)
        rules = [
            rule
            for rule in rules
            if any(selector_matches(rule.code, sel) for sel in wanted)
        ]
    if ignore is not None:
        dropped = list(ignore)
        rules = [
            rule
            for rule in rules
            if not any(selector_matches(rule.code, sel) for sel in dropped)
        ]
    return rules
