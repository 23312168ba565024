"""Project-specific static analysis (``reprolint``).

The reproduction's credibility rests on invariants no general-purpose
linter knows about: the simulated world must be deterministic under a
seeded RNG and a :class:`~repro.simnet.clock.WheelClock`, the live crawler
must never block its event loop or swallow task cancellation, and the
wire-format layers must never mix ``str`` and ``bytes``.  ``reprolint``
encodes those invariants as AST checks so they are enforced by tier-1
tests and CI rather than by review vigilance.

Usage::

    python -m repro.devtools.lint src/

See :mod:`repro.devtools.rules` for the rule families and DESIGN.md
("Static analysis & invariants") for the rationale behind each one.
"""

from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, all_rules, register
from repro.devtools.runner import lint_paths

__all__ = ["Finding", "Rule", "all_rules", "register", "lint_paths"]
