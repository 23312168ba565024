"""The Telemetry facade: one object bundling registry + journal + clock.

Instrumented code (``nodefinder.wire``, ``nodefinder.live``,
``discovery.protocol``, ``fullnode``) takes a :class:`Telemetry` and
calls its ``record_*`` methods; the facade fans each observation out to
the metrics registry and — when one is attached — the structured
:class:`~repro.telemetry.journal.EventJournal`.  All timestamps come
from the single injected clock (OBS-CLOCK enforces that no wall clock is
read here), so metrics, spans, and journal share one timeline.

``NULL_TELEMETRY`` is the no-op default: a :class:`NullRegistry` and no
journal, so uninstrumented call sites pay only a method call.  There is
no mutable global registry — whoever owns a run constructs a Telemetry
and passes it down.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence, Tuple

from repro.telemetry.journal import (
    Event,
    dao_line,
    dial_line,
    disconnect_line,
    hello_line,
    status_line,
)
from repro.telemetry.metrics import MetricsRegistry, NullRegistry
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.spans import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nodefinder.records import DialResult
    from repro.resilience.breaker import BreakerState
    from repro.telemetry.flightrecorder import FlightRecorder


def _hex(node_id: Optional[bytes]) -> Optional[str]:
    return node_id.hex() if node_id is not None else None


class JournalSink(Protocol):
    """What the facade asks of its journal: one :class:`EventJournal`, or a
    crawl's :class:`~repro.nodefinder.reshard.ReshardCoordinator` placing
    each write in one of its segment files by the node it is about."""

    def write_lines(
        self, text: str, records: int = 1, node_id: Optional[bytes] = None
    ) -> None: ...


class Telemetry:
    """Metrics + spans + journal behind one injectable seam."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[JournalSink] = None,
        clock: Optional[Callable[[], float]] = None,
        shard: str = "",
        profiler: Optional[Profiler] = None,
        recorder: Optional["FlightRecorder"] = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.registry = (
            registry if registry is not None else MetricsRegistry(clock=self.clock)
        )
        self.journal = journal
        #: hot-path attribution sink; the shared no-op by default, so
        #: ``with telemetry.profiler.scope(...)`` costs next to nothing
        #: on unprofiled runs
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: crash flight recorder; when attached, every journaled event
        #: and started span tees into its per-shard ring buffers, and the
        #: crash-shaped record_* methods below trigger a dump
        self.recorder = recorder
        #: which crawl shard this facade instruments ("" = the whole
        #: crawler, or a harvest with no crawler).  Every family a shard
        #: worker emits carries it as a label, so per-shard dashboards work
        #: off one shared registry; sum across shards with
        #: ``Counter.total()``.  The label is all a shard facade is for:
        #: which *file* a record lands in is the journal's business.
        self.shard = shard
        registry_ = self.registry
        # -- harvest / dial funnel ------------------------------------------
        self.dials = registry_.counter(
            "nodefinder_dials_total",
            "harvest attempts by outcome and failing stage",
            ("outcome", "stage", "shard"),
        )
        self.dial_seconds = registry_.histogram(
            "nodefinder_dial_seconds",
            "wall time of one harvest attempt",
            ("shard",),
        )
        self.stage_seconds = registry_.histogram(
            "nodefinder_dial_stage_seconds",
            "wall time of one harvest stage",
            ("stage", "shard"),
        )
        self.retries = registry_.counter(
            "nodefinder_retries_total",
            "backoff waits before dial re-attempts",
            ("shard",),
        )
        self.breaker_transitions = registry_.counter(
            "nodefinder_breaker_transitions_total",
            "circuit-breaker state changes by destination state",
            ("to", "shard"),
        )
        # -- crawler scheduler ----------------------------------------------
        self.lookups = registry_.counter(
            "crawler_lookups_total", "discv4 lookup rounds completed"
        )
        self.scheduled_dials = registry_.counter(
            "crawler_scheduled_dials_total",
            "dials the crawler scheduled, by connection type",
            ("type", "shard"),
        )
        self.dial_failures = registry_.counter(
            "crawler_dial_failures_total",
            "dials that crashed (not failed) in-loop",
            ("shard",),
        )
        self.breaker_skips = registry_.counter(
            "crawler_breaker_skips_total",
            "dials skipped on an open breaker",
            ("shard",),
        )
        self.budget_dropped_dials = registry_.counter(
            "crawler_budget_dropped_dials_total",
            "dial candidates shed by the per-tick dial budget",
        )
        # -- sharded scheduler ----------------------------------------------
        self.shard_queue_depth = registry_.gauge(
            "crawler_shard_queue_depth",
            "dynamic-dial targets waiting in each shard's queue",
            ("shard",),
        )
        self.writer_folds = registry_.counter(
            "crawler_writer_folds_total",
            "dial results folded into the shared NodeDB by the writer",
        )
        self.loop_crashes = registry_.counter(
            "crawler_loop_crashes_total", "supervised crawler loop crashes"
        )
        self.loop_restarts = registry_.counter(
            "crawler_loop_restarts_total", "supervised crawler loop restarts"
        )
        self.loop_deaths = registry_.counter(
            "crawler_loop_deaths_total",
            "crawler loops that died for good (restart budget spent)",
        )
        # -- live shard health ----------------------------------------------
        self.shard_loop_lag = registry_.gauge(
            "crawler_shard_loop_lag_seconds",
            "how far each shard's dial loop trails the world clock",
            ("shard",),
        )
        self.shard_open_breakers = registry_.gauge(
            "crawler_shard_open_breakers",
            "peer breakers currently OPEN on the crawl's breaker gate",
            ("shard",),
        )
        self.journal_backlog = registry_.gauge(
            "crawler_journal_backlog",
            "journal events written since the last flush, per shard",
            ("shard",),
        )
        # -- elastic sharding -----------------------------------------------
        self.shard_range_lo = registry_.gauge(
            "crawler_shard_range_lo",
            "inclusive 16-bit prefix lower bound of each live shard range",
            ("shard",),
        )
        self.shard_range_hi = registry_.gauge(
            "crawler_shard_range_hi",
            "exclusive 16-bit prefix upper bound of each live shard range",
            ("shard",),
        )
        self.shard_active = registry_.gauge(
            "crawler_shard_active",
            "1 while a shard segment is live, 0 once retired by a reshard",
            ("shard",),
        )
        #: segments this facade last published as active, so a plan
        #: refresh can retire the gauges of ranges that handed off
        self._plan_segments: set = set()
        # -- discovery ------------------------------------------------------
        self.discovery_bonds = registry_.counter(
            "discovery_bonds_total", "endpoint-proof attempts by outcome", ("outcome",)
        )
        self.discovery_chaos_faults = registry_.counter(
            "discovery_chaos_faults_total",
            "datagram faults injected by the chaos layer",
            ("fault",),
        )
        # label-child handles resolved once per (outcome, stage) — the
        # shard label is fixed for a facade's lifetime, and labels() is
        # too hot to re-run per dial
        self._dial_children: dict[tuple, object] = {}
        self._dial_seconds_child = self.dial_seconds.labels(shard=self.shard)

    def _sharing(self, journal, clock, shard: str) -> "Telemetry":
        return Telemetry(
            registry=self.registry,
            journal=journal,
            clock=clock,
            shard=shard,
            profiler=self.profiler,
            recorder=self.recorder,
        )

    def with_journal(
        self, journal: JournalSink, clock: Callable[[], float]
    ) -> "Telemetry":
        """This facade, journaling to ``journal`` on ``clock`` — what a
        crawler given a segment opener makes of the facade it was handed."""
        return self._sharing(journal, clock, self.shard)

    def for_shard(self, shard: str) -> "Telemetry":
        """The facade one shard segment instruments through: everything
        shared with this one — registry, journal, clock, profiler, flight
        recorder — under the ``shard`` metric label, so counters aggregate
        exactly as unsharded and each segment still has its own row."""
        return self._sharing(self.journal, self.clock, shard)

    # -- primitives ---------------------------------------------------------

    def start_span(self, name: str) -> Span:
        span = Span(name, self.clock)
        if self.recorder is not None:
            self.recorder.track_span(span, self.shard)
        return span

    def emit(
        self, event_type: str, node_id: Optional[bytes] = None, **fields
    ) -> None:
        """Journal one event (no-op without a journal or flight recorder).

        ``node_id`` is journaled as hex and, as bytes, places the record;
        ``None`` fields are left out."""
        if self.journal is None and self.recorder is None:
            return
        clean = {key: value for key, value in fields.items() if value is not None}
        if node_id is not None:
            clean["node_id"] = node_id.hex()
        event = Event(type=event_type, ts=self.clock(), fields=clean)
        if self.journal is not None:
            with self.profiler.scope("journal.append"):
                self.journal.write_lines(event.to_json() + "\n", 1, node_id)
        if self.recorder is not None:
            self.recorder.record_event(event, self.shard)

    # -- harvest ------------------------------------------------------------

    def record_dial(
        self, result: "DialResult", span: Optional[Span] = None, attempt: int = 1
    ) -> None:
        """One completed harvest attempt: funnel counter, latency
        histograms from the span's stage children, and the journal's
        dial / hello / status / dao / disconnect records — encoded straight
        from the result's values and handed to the journal in one write."""
        outcome = result.outcome.value
        stage = result.failure_stage or ""
        child = self._dial_children.get((outcome, stage))
        if child is None:
            child = self.dials.labels(outcome=outcome, stage=stage, shard=self.shard)
            self._dial_children[(outcome, stage)] = child
        child.inc()
        self._dial_seconds_child.observe(result.duration)
        stages = {}
        if span is not None:
            stages = span.stage_durations()
            for stage, duration in stages.items():
                self.stage_seconds.labels(stage=stage, shard=self.shard).observe(
                    duration
                )
        if self.journal is None and self.recorder is None:
            return
        ts = self.clock()
        node_id = result.node_id.hex()
        lines = [
            dial_line(
                ts,
                node_id=node_id,
                ip=result.ip,
                tcp_port=result.tcp_port,
                started=result.timestamp,
                outcome=outcome,
                connection_type=result.connection_type,
                duration=result.duration,
                latency=result.latency or None,
                attempt=attempt,
                stages=stages or None,
                failure_stage=result.failure_stage,
                failure_detail=result.failure_detail,
            )
        ]
        if result.got_hello:
            lines.append(
                hello_line(
                    ts,
                    node_id=node_id,
                    client_id=result.client_id,
                    capabilities=[list(cap) for cap in result.capabilities or []],
                    listen_port=result.listen_port,
                )
            )
        if result.got_status:
            lines.append(
                status_line(
                    ts,
                    node_id=node_id,
                    network_id=result.network_id,
                    genesis_hash=_hex(result.genesis_hash),
                    best_hash=_hex(result.best_hash),
                    best_block=result.best_block,
                    head_height=result.head_height,
                    total_difficulty=result.total_difficulty,
                )
            )
        if result.dao_side is not None:
            lines.append(dao_line(ts, node_id=node_id, verdict=result.dao_side))
        reason = result.disconnect_reason
        if reason is not None:
            lines.append(
                disconnect_line(
                    ts,
                    node_id=node_id,
                    reason=int(reason),
                    reason_name=reason.name.lower().replace("_", "-"),
                    sent_by="remote",
                )
            )
        elif outcome == "full-harvest":
            # a full harvest always ends with our DISCONNECT(Client quitting)
            lines.append(
                disconnect_line(
                    ts,
                    node_id=node_id,
                    reason=8,
                    reason_name="client-quitting",
                    sent_by="local",
                )
            )
        if self.journal is not None:
            with self.profiler.scope("journal.append"):
                self.journal.write_lines(
                    "\n".join(lines) + "\n", len(lines), result.node_id
                )
        if self.recorder is not None:
            for line in lines:
                self.recorder.record_event(Event.from_json(line), self.shard)

    def record_retry(
        self, node_id: Optional[bytes], attempt: int, delay: float
    ) -> None:
        self.retries.labels(shard=self.shard).inc()
        self.emit("retry", node_id=node_id, attempt=attempt, delay=delay)

    def record_breaker(
        self, node_id: bytes, old: "BreakerState", new: "BreakerState"
    ) -> None:
        self.breaker_transitions.labels(to=new.value, shard=self.shard).inc()
        self.emit("breaker", node_id=node_id, old=old.value, new=new.value)
        if self.recorder is not None and new.value == "open":
            self.recorder.dump("breaker-open", detail=_hex(node_id) or "")

    def record_subnet_breaker(
        self, subnet: str, old: "BreakerState", new: "BreakerState"
    ) -> None:
        """A subnet-scope breaker changed state (coordinated-failure guard)."""
        self.emit(
            "breaker", scope="subnet", subnet=subnet, old=old.value, new=new.value
        )
        if self.recorder is not None and new.value == "open":
            self.recorder.dump("subnet-breaker-open", detail=subnet)

    # -- crawler scheduler ---------------------------------------------------

    def record_scheduled_dial(self, connection_type: str) -> None:
        self.scheduled_dials.labels(type=connection_type, shard=self.shard).inc()

    def record_dial_crash(self, error: str = "") -> None:
        self.dial_failures.labels(shard=self.shard).inc()
        if self.recorder is not None:
            self.recorder.dump("dial-crash", detail=error)

    def record_breaker_skip(self) -> None:
        self.breaker_skips.labels(shard=self.shard).inc()

    def record_budget_drop(self, count: int = 1) -> None:
        if count > 0:
            self.budget_dropped_dials.inc(count)

    # -- discovery table admission ------------------------------------------

    def record_table_admission(
        self,
        node_id: bytes,
        ip: Optional[str],
        reason: str,
        subnet: Optional[str] = None,
    ) -> None:
        """A routing-table admission guard refused a candidate entry."""
        self.emit(
            "table_admission",
            node_id=node_id,
            ip=ip,
            reason=reason,
            subnet=subnet,
        )

    # -- crawler loops -------------------------------------------------------

    def record_loop_crash(self, loop: str, error: str) -> None:
        self.loop_crashes.inc()
        self.emit("supervisor", loop=loop, event="crash", error=error)
        if self.recorder is not None:
            self.recorder.dump("loop-crash", detail=f"{loop}: {error}")

    def record_loop_restart(self, loop: str) -> None:
        self.loop_restarts.inc()
        self.emit("supervisor", loop=loop, event="restart")

    def record_loop_death(self, loop: str, error: str) -> None:
        self.loop_deaths.inc()
        self.emit("supervisor", loop=loop, event="death", error=error)
        if self.recorder is not None:
            self.recorder.dump("loop-death", detail=f"{loop}: {error}")

    def record_shard_health(
        self,
        queue_depth: Optional[int] = None,
        lag: Optional[float] = None,
        open_breakers: Optional[int] = None,
        journal_backlog: Optional[int] = None,
    ) -> None:
        """Refresh this shard's health gauges (pass only what you know)."""
        label = self.shard
        if queue_depth is not None:
            self.shard_queue_depth.labels(shard=label).set(queue_depth)
        if lag is not None:
            self.shard_loop_lag.labels(shard=label).set(lag)
        if open_breakers is not None:
            self.shard_open_breakers.labels(shard=label).set(open_breakers)
        if journal_backlog is not None:
            self.journal_backlog.labels(shard=label).set(journal_backlog)

    # -- elastic sharding ----------------------------------------------------

    def record_shard_plan(
        self, ranges: Sequence[Tuple[str, int, int]]
    ) -> None:
        """Publish the live plan: one (segment, lo, hi) row per range.

        Ranges retired since the previous call drop to ``active = 0`` so
        ``nodefinder top`` can render only the current partition."""
        live = set()
        for segment, lo, hi in ranges:
            live.add(segment)
            self.shard_range_lo.labels(shard=segment).set(float(lo))
            self.shard_range_hi.labels(shard=segment).set(float(hi))
            self.shard_active.labels(shard=segment).set(1.0)
        for segment in self._plan_segments - live:
            self.shard_active.labels(shard=segment).set(0.0)
            # zero the range gauges too: merge_snapshots sums across
            # instances, so a stale lo/hi left by an instance that retired
            # this segment would skew the rendered range of any instance
            # still publishing it (active counts only live publishers)
            self.shard_range_lo.labels(shard=segment).set(0.0)
            self.shard_range_hi.labels(shard=segment).set(0.0)
        self._plan_segments = live

    # -- discovery -----------------------------------------------------------

    def record_bond(self, node_id: bytes, ok: bool) -> None:
        self.discovery_bonds.labels(outcome="ok" if ok else "failed").inc()
        self.emit("bond", node_id=node_id, ok=ok)

    def record_datagram_fault(self, fault: str) -> None:
        self.discovery_chaos_faults.labels(fault=fault).inc()
        self.emit("datagram_fault", fault=fault)


#: shared no-op default — no journal, null registry, nothing recorded
NULL_TELEMETRY = Telemetry(registry=NullRegistry())
