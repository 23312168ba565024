"""Dial-stage tracing: one span per dial, one child span per stage.

The §4 harvest is a fixed five-stage pipeline (connect → rlpx → hello →
status → dao); a :class:`Span` times the whole dial and a child span
times each stage, so the journal's ``stages`` breakdown — and the
health page's stage latencies folded from it — fall out of the same
measurements.  Spans read time
exclusively from the clock injected at construction (OBS-CLOCK bans a
direct wall-clock call here), which a live run points at
``time.monotonic`` and a simulated run points at its sim clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class Span:
    """One timed operation, possibly with timed children."""

    __slots__ = ("name", "start", "duration", "outcome", "children", "_clock")

    def __init__(self, name: str, clock: Callable[[], float]) -> None:
        self.name = name
        self._clock = clock
        self.start = clock()
        self.duration: Optional[float] = None
        self.outcome: Optional[str] = None
        self.children: List["Span"] = []

    def child(self, name: str) -> "Span":
        """Start a child span now."""
        child = Span(name, self._clock)
        self.children.append(child)
        return child

    def finish(self, outcome: str = "ok") -> float:
        """Close the span (idempotent); returns its duration.

        Children still open inherit the same outcome — an exception that
        ends a dial mid-stage closes the stage it died in.
        """
        for child in self.children:
            if child.duration is None:
                child.finish(outcome)
        if self.duration is None:
            self.duration = self._clock() - self.start
            self.outcome = outcome
        return self.duration

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def stage_durations(self) -> Dict[str, float]:
        """Child name → duration for every finished child, in start order."""
        return {
            child.name: child.duration
            for child in self.children
            if child.duration is not None
        }
