"""Observability for the measurement stack: metrics, spans, and the journal.

The paper's NodeFinder is first a *measurement instrument* — its figures
are all derived from the log it kept while crawling.  ``repro.telemetry``
makes the reproduction observable the same way, with zero dependencies
and zero ambient state:

* :class:`MetricsRegistry` — Counter / Gauge / Histogram families with
  labeled children and fixed bucket bounds (:class:`NullRegistry` is the
  no-op default for uninstrumented call sites);
* :class:`Span` — per-dial traces with one child span per harvest stage,
  feeding per-stage latency histograms;
* :class:`EventJournal` / :func:`iter_events` / :func:`read_events` —
  the structured JSONL measurement journal (versioned schema, exact
  round-trip; the reader is a generator, ``read_events`` its list);
* :func:`merge_snapshots` — fold per-instance registry snapshots into
  one fleet total;
* :func:`summarize_journal` — the human summary behind ``repro
  telemetry``;
* :class:`Telemetry` — the facade instrumented code receives, bundling
  registry + journal + the one injected clock (``NULL_TELEMETRY`` is the
  shared do-nothing default);
* :class:`Profiler` / :func:`render_profile` — hot-path self-time
  attribution via scoped timers (:class:`TickClock` for deterministic,
  byte-stable tables; ``NULL_PROFILER`` is the free default);
* :class:`FlightRecorder` — per-shard ring buffers of recent events and
  open spans, crash-dumped to ``flightrecord.json``;
* :func:`render_top` — the one-page view of a metrics snapshot: shard
  health, stage latencies, funnel and loop counters.

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
from repro.telemetry.merge import merge_snapshots
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    quantile_from_buckets,
)
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    Profiler,
    TickClock,
    render_profile,
)
from repro.telemetry.spans import Span
from repro.telemetry.summary import summarize_journal

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventJournal",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JournalError",
    "MetricError",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TELEMETRY",
    "NullProfiler",
    "NullRegistry",
    "Profiler",
    "SCHEMA_VERSION",
    "Span",
    "Telemetry",
    "TickClock",
    "iter_events",
    "merge_snapshots",
    "quantile_from_buckets",
    "read_events",
    "read_flightrecord",
    "render_profile",
    "render_top",
    "summarize_journal",
]
