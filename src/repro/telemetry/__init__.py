"""Observability for the measurement stack: spans, the journal, the views.

The paper's NodeFinder is first a *measurement instrument* — its figures
are all derived from the log it kept while crawling.  ``repro.telemetry``
makes the reproduction observable the same way, with zero dependencies
and zero ambient state:

* :class:`Span` — per-dial traces with one child span per harvest stage,
  feeding the journal's per-stage durations;
* :class:`EventJournal` / :func:`iter_events` / :func:`read_events` —
  the structured JSONL measurement journal (versioned schema, exact
  round-trip; the reader is a generator, ``read_events`` its list);
* :class:`Telemetry` — the facade instrumented code receives, bundling
  journal + the one injected clock + profiler + flight recorder
  (``NULL_TELEMETRY`` is the shared do-nothing default);
* :class:`Profiler` / :func:`render_profile` — hot-path self-time
  attribution via scoped timers (:class:`TickClock` for deterministic,
  byte-stable tables; ``NULL_PROFILER`` is the free default);
* :class:`FlightRecorder` — per-shard ring buffers of recent events and
  open spans, crash-dumped to ``flightrecord.json``;
* :func:`render_top` — the one-page health view folded from a crawl's
  journals: per-file rows, dial funnel, stage latencies, breakers,
  supervisor and discovery health, plan history.

Everything here reads time only through the injected clock; the
OBS-CLOCK reprolint family fails the build on a direct wall-clock call.
"""

from repro.telemetry.flightrecorder import FlightRecorder, read_flightrecord
from repro.telemetry.health import render_top
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry
from repro.telemetry.journal import (
    SCHEMA_VERSION,
    Event,
    EventJournal,
    JournalError,
    iter_events,
    read_events,
)
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    TickClock,
    render_profile,
)
from repro.telemetry.spans import Span

__all__ = [
    "Event",
    "EventJournal",
    "FlightRecorder",
    "JournalError",
    "NULL_PROFILER",
    "NULL_TELEMETRY",
    "NullProfiler",
    "Profiler",
    "SCHEMA_VERSION",
    "Span",
    "Telemetry",
    "TickClock",
    "iter_events",
    "read_events",
    "read_flightrecord",
    "render_profile",
    "render_top",
]
