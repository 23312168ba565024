"""Hostile-load hardening limits and anomaly accounting for the crawler.

The scanner faces the adversaries of :mod:`repro.simnet.adversary`
(Sybil /24 swarms, ground node IDs, false-friend NEIGHBORS, FINDNODE
amplification) with three layered defences:

* **table admission** — Geth's per-/24 and per-bucket IP limits plus a
  per-IP node-ID cap (:class:`~repro.discovery.admission.TableAdmission`)
  keep minted identities out of the crawler's own routing table, so
  lookups keep starting from honest candidates;
* **subnet breakers** — the :class:`~repro.resilience.breaker.
  PeerScoreboard` subnet dimension opens one breaker per /24 under
  coordinated failure, so a phantom swarm burns one cooldown instead of
  a breaker per fake enode;
* **dial budget** — a per-tick cap on dynamic dials sheds amplification
  floods *before* they enter the dial history, so honest targets shed in
  one tick stay dialable in the next and retry capacity is never starved.

``NodeFinderConfig.defended`` switches all three on at Geth's production
limits: table admission at ``TableAdmission``'s defaults, the breakers
and the budget at the constants below.  :class:`DefenseStats` is the
graceful-degradation contract: the crawl always completes, and whatever
the defences absorbed is surfaced here so the run can flag the anomaly
instead of silently under-measuring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: per-peer breaker: consecutive transport failures before backing off
BREAKER_FAILURE_THRESHOLD = 3
BREAKER_COOLDOWN = 30 * 60.0
#: subnet breaker: transport failures across one /24 before the whole
#: prefix is backed off (catches swarms that rotate node IDs per dial)
SUBNET_FAILURE_THRESHOLD = 12
SUBNET_COOLDOWN = 60 * 60.0
#: dynamic-dial budget per discovery tick; candidates over the budget are
#: shed *without* entering the dial history
MAX_DYNAMIC_DIALS_PER_TICK = 32


@dataclass
class DefenseStats:
    """What the defences absorbed during one crawl (anomaly surface)."""

    #: table-admission refusals by reason string
    table_rejections: Dict[str, int] = field(default_factory=dict)
    #: subnet breakers that transitioned to OPEN (trips, not current state)
    subnet_breaker_trips: int = 0
    #: dials skipped because a peer or subnet breaker was open
    breaker_skips: int = 0
    #: dynamic-dial candidates shed by the per-tick budget
    budget_dropped_dials: int = 0
    #: prefixes open at the end of the crawl
    open_subnets: Tuple[str, ...] = ()

    def note_rejection(self, reason: str) -> None:
        self.table_rejections[reason] = self.table_rejections.get(reason, 0) + 1

    @property
    def total_rejections(self) -> int:
        return sum(self.table_rejections.values())

    @property
    def anomaly_detected(self) -> bool:
        """Did the crawl run into coordinated hostile behaviour?

        Any admission refusal or subnet trip is already coordination
        evidence (honest populations essentially never hit the /24
        limits); sustained budget shedding marks amplification.
        """
        return (
            self.total_rejections > 0
            or self.subnet_breaker_trips > 0
            or self.budget_dropped_dials > 10
        )

    def summary(self) -> str:
        return (
            f"table rejections={self.total_rejections} "
            f"subnet trips={self.subnet_breaker_trips} "
            f"breaker skips={self.breaker_skips} "
            f"budget drops={self.budget_dropped_dials}"
        )
