"""The reference scheduler: the ordering oracle of ``WheelClock``."""

from __future__ import annotations

import heapq
from typing import Optional

from repro.simnet.clock import WheelClock


class ReferenceClock(WheelClock):
    """The original single-binary-heap scheduler (executable spec).

    It replaces only :class:`~repro.simnet.clock.WheelClock`'s queue
    primitives, so ``schedule`` / ``schedule_every`` / ``step`` /
    ``run_until`` are production's own lines: the equivalence harness runs
    every schedule against both clocks and demands identical behaviour,
    which checks the wheel's bucket and overflow logic against a plain
    heap ordered by ``(when, sequence)``.
    """

    def __init__(self, start: float = 0.0) -> None:
        super().__init__(start)
        self._queue: list = []

    def _push(self, entry) -> None:
        heapq.heappush(self._queue, entry)

    def _pop(self):
        if not self._queue:
            return None
        return heapq.heappop(self._queue)

    def _peek_when(self) -> Optional[float]:
        if not self._queue:
            return None
        return self._queue[0][0]

    @property
    def pending(self) -> int:
        return len(self._queue)
