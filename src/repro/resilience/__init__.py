"""Resilience primitives for the live NodeFinder stack.

The paper's crawler ran for months against the open Internet; this
package holds everything that lets the reproduction degrade gracefully
the same way: deterministic retry/backoff (:class:`RetryPolicy`),
per-stage harvest deadlines (:class:`StageBudgets`), per-peer circuit
breakers (:class:`CircuitBreaker` / :class:`PeerScoreboard`), crash
supervision for crawler loops (:class:`LoopSupervisor`), and the chaos
fault-injection layer (:class:`ChaosProxy`, :class:`ChaosStreamReader`
for TCP, :class:`ChaosDatagramTransport` for the UDP discovery socket)
the test suite uses to prove each failure mode maps to a deterministic
:class:`~repro.nodefinder.records.DialOutcome` or telemetry outcome.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker, PeerScoreboard
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosDatagramTransport,
    ChaosProxy,
    ChaosStreamReader,
    DatagramChaosConfig,
    DatagramFault,
    FaultType,
)
from repro.resilience.deadline import StageBudgets, StageTimeout, bounded
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import DEFAULT_SUPERVISOR_POLICY, LoopSupervisor

__all__ = [
    "BreakerState",
    "ChaosConfig",
    "ChaosDatagramTransport",
    "ChaosProxy",
    "ChaosStreamReader",
    "CircuitBreaker",
    "DEFAULT_SUPERVISOR_POLICY",
    "DatagramChaosConfig",
    "DatagramFault",
    "FaultType",
    "LoopSupervisor",
    "PeerScoreboard",
    "RetryPolicy",
    "StageBudgets",
    "StageTimeout",
    "bounded",
]
