"""Hot-path attribution: where does a wall-second of crawling go?

The ROADMAP's event-core rework is profile-guided, so the stack needs an
instrument that can say how much of a run was spent in the dial loop vs
discovery vs journal appends vs the NodeDB writer — cheaply enough to
leave compiled in, and deterministically enough to pin its output in a
golden file.  :class:`Profiler` is that instrument: scoped timers (the
same shape as :class:`~repro.telemetry.spans.Span`, but aggregating into
per-name statistics instead of retaining a tree) that track call count,
inclusive time, *self* time (inclusive minus time spent in nested
scopes), and the maximum single call.

Two clock disciplines, both injected by reference (OBS-CLOCK bans a
direct wall-clock call here):

* ``time.perf_counter`` *by reference* — real wall attribution for
  profile-guided optimisation (``nodefinder profile --wall``, the
  ``BENCH_crawl.json`` phase breakdown);
* :class:`TickClock` — a deterministic virtual clock that advances a
  fixed quantum per read, so a scope's "duration" counts instrumented
  operations inside it.  Under a fixed simulation seed the whole
  attribution table is byte-stable, which is what lets ``nodefinder
  profile`` pin a golden file and run in CI.

``NULL_PROFILER`` is the default no-op: uninstrumented runs pay one
attribute load and an empty context manager per scope (the telemetry
overhead guard prices this against a real harvest).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.render import format_table

#: default virtual-clock quantum: one microsecond per read, so virtual
#: durations render in the same millisecond columns as wall timings
TICK_QUANTUM = 1e-6


class TickClock:
    """Deterministic virtual clock: every read advances a fixed quantum.

    A scope timed on a :class:`TickClock` measures *instrumented
    operations*, not seconds — two clock reads per scope entry, so a
    subsystem's self time is proportional to how many instrumented
    scopes ran inside it.  The proxy is exact and seed-stable, which is
    the property the ``nodefinder profile`` golden file pins.
    """

    __slots__ = ("now", "quantum")

    def __init__(self, quantum: float = TICK_QUANTUM, start: float = 0.0) -> None:
        self.now = start
        self.quantum = quantum

    def __call__(self) -> float:
        now = self.now
        self.now += self.quantum
        return now


class ProfileStat:
    """Aggregated timings for one scope name."""

    __slots__ = ("name", "calls", "total", "self_time", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.max = 0.0


class _Scope:
    """One active scoped timer; re-entrant via the profiler's stack."""

    __slots__ = ("_profiler", "name", "_start", "_child_time")

    def __init__(self, profiler: "Profiler", name: str, start: float) -> None:
        self._profiler = profiler
        self.name = name
        self._start = start
        self._child_time = 0.0

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, *exc_info) -> None:
        self._profiler._exit(self)


class _NullScope:
    """Shared do-nothing scope: the cost of an uninstrumented call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SCOPE = _NullScope()


class Profiler:
    """Scoped-timer aggregator behind one injected clock: every scope entry
    is counted and timed."""

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.stats: Dict[str, ProfileStat] = {}
        self._stack: List[_Scope] = []
        self._entries = 0
        # exited scopes are recycled: the crawl opens one scope per journal
        # append / dial / fold, and the allocator shows up at that rate
        self._pool: List[_Scope] = []

    def scope(self, name: str) -> _Scope:
        """Open a scoped timer; use as ``with profiler.scope("x"): ...``."""
        self._entries += 1
        pool = self._pool
        if pool:
            scope = pool.pop()
            scope.name = name
            scope._start = self.clock()
            scope._child_time = 0.0
        else:
            scope = _Scope(self, name, self.clock())
        self._stack.append(scope)
        return scope

    def _exit(self, scope: _Scope) -> None:
        # tolerate mis-nested exits (a scope abandoned by an exception in
        # a sibling): unwind to the exiting scope
        while self._stack and self._stack[-1] is not scope:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        stat = self.stats.get(scope.name)
        if stat is None:
            stat = self.stats[scope.name] = ProfileStat(scope.name)
        stat.calls += 1
        duration = self.clock() - scope._start
        stat.total += duration
        stat.self_time += duration - scope._child_time
        if duration > stat.max:
            stat.max = duration
        if self._stack:
            self._stack[-1]._child_time += duration
        self._pool.append(scope)

    @property
    def entries(self) -> int:
        """Scope entries seen."""
        return self._entries


class NullProfiler(Profiler):
    """The no-op default: counts nothing, times nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def scope(self, name: str) -> _NullScope:  # type: ignore[override]
        return _NULL_SCOPE


#: shared no-op default — one instance for every uninstrumented call site
NULL_PROFILER = NullProfiler()


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}ms"


def render_profile(profiler: Profiler) -> str:
    """The per-subsystem attribution table, byte-stable for equal stats.

    Rows are sorted by self time (descending) with lexicographic name
    tie-breaks, so two identical runs — e.g. two seeded simulations on a
    :class:`TickClock` — render identical bytes.
    """
    stats = sorted(
        profiler.stats.values(), key=lambda stat: (-stat.self_time, stat.name)
    )
    total_self = sum(stat.self_time for stat in stats) or 1.0
    rows = [
        [
            stat.name,
            stat.calls,
            _ms(stat.self_time),
            _ms(stat.total),
            _ms(stat.max),
            f"{stat.self_time / total_self:.1%}",
        ]
        for stat in stats
    ]
    table = format_table(
        "Hot-path profile",
        ["subsystem", "calls", "self", "total", "max", "share"],
        rows,
    )
    footer = (
        f"{profiler.entries} scope entries; "
        f"self-time total {_ms(sum(stat.self_time for stat in stats))}"
    )
    return f"{table}\n{footer}"
