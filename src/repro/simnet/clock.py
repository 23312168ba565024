"""Discrete-event simulation clocks.

A single ordered event queue drives the whole world: NodeFinder instances,
chain growth, churn ticks, and release-calendar events all schedule
callbacks here.  Time is float seconds since the simulation epoch.

:class:`WheelClock` is the scheduler: a hierarchical calendar wheel (a
near wheel of per-tick buckets plus an overflow heap for events beyond
the wheel horizon).  Pushes into the near wheel are O(1) appends; the
cursor only ever moves forward, so a whole simulation amortises to
O(events + elapsed ticks).  This is the cycle-driven layout of the
bitcoin-simulator lineage, adapted to float timestamps.

The scheduler-equivalence harness (``tests/test_clock_equivalence.py``)
runs every schedule on it and on a single-binary-heap subclass that
replaces only the queue primitives, and asserts identical callback
order, ``now`` trajectories and byte-identical crawl output.

The ordering contract the scheduler honours exactly:

* events execute in ``(when, sequence)`` order — timestamp first, FIFO
  among events scheduled for the same instant;
* ``schedule_every(..., until=u)`` *fires at* ``u``: a tick landing
  exactly on the boundary runs before the loop stops;
* ``run_until(deadline)`` executes events with ``when <= deadline`` and
  leaves later ones queued;
* ``run_until(..., max_events=m)`` executes at most ``m`` events and
  raises only if the queue still holds work due before the deadline —
  draining on exactly the ``m``-th event is success, not failure.

Callbacks may carry a ``label`` naming the subsystem they belong to
(``"world.grow_chain"``, ``"scanner.discovery_tick"``, ...).  When a
:class:`~repro.telemetry.profiler.Profiler` is attached to ``profiler``,
:meth:`step` runs each labelled callback inside a profiler scope, which
is how a whole simulation's event core gets attributed per subsystem.
Unprofiled runs take the ``profiler is None`` branch and pay nothing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
# benchmarks/perf imports SECONDS_PER_DAY from here
from repro.units import SECONDS_PER_DAY  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.profiler import Profiler

#: profile scope for callbacks scheduled without a label
UNLABELLED = "clock.unlabelled"

#: one queue entry: (when, sequence, callback, label) — the sequence is
#: globally unique, so tuple comparison never reaches the callback
_Entry = "tuple[float, int, Callable[[], None], Optional[str]]"


class WheelClock:
    """Hierarchical calendar-wheel scheduler: near wheel + overflow heap.

    The near wheel covers ``slots`` ticks of ``tick`` seconds from the
    cursor; events inside the window land in per-tick buckets (plain list
    appends), events beyond it go to an overflow heap and migrate into
    the wheel as the cursor advances.  Within a bucket, entries are
    lazily sorted by ``(when, sequence)`` — float timestamps inside one
    tick keep exact global ordering because ``floor`` is monotone, and
    the FIFO tie-break rides on the globally unique sequence number.

    Late arrivals (an event scheduled for a time at or before the
    cursor's tick, e.g. a zero-delay reschedule after the cursor skipped
    ahead to a far-future event) clamp into the cursor bucket, where the
    within-bucket sort restores their correct position: nothing earlier
    can still be queued, so the clamp never reorders execution.

    The queue primitives are ``_push(entry)``, ``_pop() -> entry | None``,
    ``_peek_when() -> float | None`` and ``pending``; everything else —
    the ordering semantics, periodic loops, deadline handling — is built
    on them alone, so a test subclass that replaces only those four
    shares every other line with production.
    """

    def __init__(
        self,
        start: float = 0.0,
        *,
        tick: float = 1.0,
        slots: int = 8192,
    ) -> None:
        self.now = start
        self._sequence = itertools.count()
        self._processed = 0
        #: attach a Profiler to attribute event time per callback label
        self.profiler: Optional["Profiler"] = None
        if tick <= 0:
            raise SimulationError("wheel tick must be positive")
        if slots < 2:
            raise SimulationError("wheel needs at least 2 slots")
        self._inv_tick = 1.0 / tick
        self._slots = slots
        #: a bucket is a list only while events are in it, None otherwise:
        #: the wheel holds occupied ticks, not ``slots`` empty lists
        self._buckets: list[Optional[list]] = [None] * slots
        self._dirty = bytearray(slots)
        #: cursor: the lowest not-yet-drained tick index; window is
        #: [_base, _base + _slots)
        self._base = int(start * self._inv_tick)
        self._near = 0
        self._overflow: list = []

    # -- scheduling -------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        label: Optional[str] = None,
    ) -> None:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self._push((self.now + delay, next(self._sequence), callback, label))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``when``."""
        self.schedule(when - self.now, callback)

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        until: Optional[float] = None,
        jitter: Callable[[], float] | None = None,
        label: Optional[str] = None,
    ) -> None:
        """Run ``callback`` every ``interval`` seconds (optionally jittered).

        The ``until`` boundary is inclusive (*fire-at-until*): a tick that
        lands exactly on ``until`` still runs; only ticks strictly after
        it are dropped.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")

        def tick() -> None:
            if until is not None and self.now > until:
                return
            callback()
            delay = interval + (jitter() if jitter else 0.0)
            self.schedule(max(delay, 0.0), tick, label)

        self.schedule(interval, tick, label)

    @property
    def events_processed(self) -> int:
        return self._processed

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Run the next event; False when the queue is empty."""
        entry = self._pop()
        if entry is None:
            return False
        when, _, callback, label = entry
        if when > self.now:
            self.now = when
        if self.profiler is None:
            callback()
        else:
            with self.profiler.scope(label or UNLABELLED):
                callback()
        self._processed += 1
        return True

    def run_until(self, deadline: float, max_events: int | None = None) -> None:
        """Run events up to ``deadline`` (events after it stay queued).

        With ``max_events``, at most that many events execute; the guard
        raises only when the queue still holds an event due at or before
        ``deadline`` after the budget is spent — a queue that drains on
        exactly the ``max_events``-th event completes normally.
        """
        count = 0
        while True:
            when = self._peek_when()
            if when is None or when > deadline:
                break
            if max_events is not None and count >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before reaching {deadline}"
                )
            self.step()
            count += 1
        if deadline > self.now:
            self.now = deadline

    def run_for(self, duration: float) -> None:
        self.run_until(self.now + duration)

    # -- placement --------------------------------------------------------------

    def _place(self, entry, t: int) -> None:
        """Drop an in-window entry into its bucket (clamped to the cursor)."""
        base = self._base
        if t < base:
            # late arrival: everything before the cursor already ran, so
            # the cursor bucket's lazy sort puts it first — order is exact
            t = base
        index = t % self._slots
        bucket = self._buckets[index]
        if bucket is None:
            self._buckets[index] = [entry]
        else:
            bucket.append(entry)
            self._dirty[index] = 1
        self._near += 1

    def _push(self, entry) -> None:
        t = int(entry[0] * self._inv_tick)
        if t < self._base + self._slots:
            self._place(entry, t)
        else:
            heapq.heappush(self._overflow, entry)

    def _migrate(self) -> None:
        """Pull overflow events that now fit inside the window."""
        overflow = self._overflow
        horizon = self._base + self._slots
        inv_tick = self._inv_tick
        while overflow:
            t = int(overflow[0][0] * inv_tick)
            if t >= horizon:
                break
            self._place(heapq.heappop(overflow), t)

    def _current_index(self) -> Optional[int]:
        """Advance the cursor to the first non-empty bucket; None if idle."""
        if not self._near:
            if not self._overflow:
                return None
            # wheel empty: jump the window straight to the overflow min
            t = int(self._overflow[0][0] * self._inv_tick)
            if t > self._base:
                self._base = t
            self._migrate()
        buckets, slots = self._buckets, self._slots
        index = self._base % slots
        while not buckets[index]:
            self._base += 1
            if self._overflow:
                self._migrate()
            index = self._base % slots
        return index

    def _sorted_bucket(self, index: int) -> list:
        bucket = self._buckets[index]
        if self._dirty[index]:
            # descending, so the minimum pops from the end in O(1)
            bucket.sort(reverse=True)
            self._dirty[index] = 0
        return bucket

    def _pop(self):
        index = self._current_index()
        if index is None:
            return None
        self._near -= 1
        bucket = self._sorted_bucket(index)
        entry = bucket.pop()
        if not bucket:
            self._buckets[index] = None
        return entry

    def _peek_when(self) -> Optional[float]:
        index = self._current_index()
        if index is None:
            return None
        return self._sorted_bucket(index)[-1][0]

    @property
    def pending(self) -> int:
        return self._near + len(self._overflow)

