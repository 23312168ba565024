"""Resilience primitives for the live NodeFinder stack.

The paper's crawler ran for months against the open Internet; this
package holds everything that lets the reproduction degrade gracefully
the same way: deterministic retry/backoff (:class:`RetryPolicy`),
per-stage harvest deadlines (:class:`StageBudgets`), per-peer circuit
breakers (:class:`CircuitBreaker` / :class:`PeerScoreboard`) and crash
supervision for crawler loops (:class:`LoopSupervisor`).
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker, PeerScoreboard
from repro.resilience.deadline import StageBudgets, StageTimeout, bounded
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import DEFAULT_SUPERVISOR_POLICY, LoopSupervisor

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_SUPERVISOR_POLICY",
    "LoopSupervisor",
    "PeerScoreboard",
    "RetryPolicy",
    "StageBudgets",
    "StageTimeout",
    "bounded",
]
