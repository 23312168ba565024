"""Resilience primitives for the live NodeFinder stack.

The paper's crawler ran for months against the open Internet; this
package holds everything that lets the reproduction degrade gracefully
the same way: one deadline per harvest stage (:func:`bounded`, whose
overrun names the stage), per-peer circuit breakers
(:class:`CircuitBreaker` / :class:`PeerScoreboard`) and crash
supervision for crawler loops (:class:`LoopSupervisor`, restarting on a
:class:`RetryPolicy` schedule).  A dial itself is never retried in
place: as in the paper, a failed peer waits for its next dial.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker, PeerScoreboard
from repro.resilience.deadline import StageTimeout, bounded
from repro.resilience.supervisor import (
    DEFAULT_SUPERVISOR_POLICY,
    LoopSupervisor,
    RetryPolicy,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_SUPERVISOR_POLICY",
    "LoopSupervisor",
    "PeerScoreboard",
    "RetryPolicy",
    "StageTimeout",
    "bounded",
]
