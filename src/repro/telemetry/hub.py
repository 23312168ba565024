"""The Telemetry facade: one object bundling journal + clock + profiler.

Instrumented code (``nodefinder.wire``, ``nodefinder.live``,
``discovery.protocol``, ``fullnode``) takes a :class:`Telemetry` and
calls its ``record_*`` methods; the facade turns each observation into
records of the structured
:class:`~repro.telemetry.journal.EventJournal` (when one is attached) and
tees them into the flight recorder (when one is attached).  All
timestamps come from the single injected clock (OBS-CLOCK enforces that
no wall clock is read here), so spans and journal share one timeline.

``NULL_TELEMETRY`` is the no-op default: no journal and no recorder, so
uninstrumented call sites pay only a method call.  There is no mutable
global state — whoever owns a run constructs a Telemetry and passes it
down.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional, Protocol

from repro.telemetry.journal import (
    Event,
    dao_line,
    dial_line,
    disconnect_line,
    hello_line,
    status_line,
)
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
    crawl's :class:`~repro.nodefinder.shard.JournalRouter` placing each
    write in one of its shard files by the node it is about."""

    def write_lines(
        self, text: str, records: int = 1, node_id: Optional[bytes] = None
    ) -> None: ...


class Telemetry:
    """Spans + journal + flight recorder behind one injectable seam."""

    def __init__(
        self,
        journal: Optional[JournalSink] = None,
        clock: Optional[Callable[[], float]] = None,
        shard: str = "",
        profiler: Optional[Profiler] = None,
        recorder: Optional["FlightRecorder"] = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
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
        #: crawler, or a harvest with no crawler): the flight recorder's
        #: ring key.  Which *file* a record lands in is the journal's
        #: business.
        self.shard = shard

    def _sharing(self, journal, clock, shard: str) -> "Telemetry":
        return Telemetry(
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
        crawler given a journal opener makes of the facade it was handed."""
        return self._sharing(journal, clock, self.shard)

    def for_shard(self, shard: str) -> "Telemetry":
        """The facade one shard instruments through: everything shared
        with this one — journal, clock, profiler, flight recorder — under
        the ``shard`` label, so each shard keeps its own flight recorder
        ring."""
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
        """One completed harvest attempt: the journal's dial / hello /
        status / dao / disconnect records — the dial's carrying the span's
        stage durations — encoded straight from the result's values and
        handed to the journal in one write."""
        if self.journal is None and self.recorder is None:
            return
        outcome = result.outcome.value
        stages = span.stage_durations() if span is not None else {}
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
        self.emit("retry", node_id=node_id, attempt=attempt, delay=delay)

    def record_breaker(
        self, node_id: bytes, old: "BreakerState", new: "BreakerState"
    ) -> None:
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

    def record_dial_crash(self, error: str = "") -> None:
        """A dial raised inside a crawler loop: dump the flight recorder."""
        if self.recorder is not None:
            self.recorder.dump("dial-crash", detail=error)

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
        self.emit("supervisor", loop=loop, event="crash", error=error)
        if self.recorder is not None:
            self.recorder.dump("loop-crash", detail=f"{loop}: {error}")

    def record_loop_restart(self, loop: str) -> None:
        self.emit("supervisor", loop=loop, event="restart")

    def record_loop_death(self, loop: str, error: str) -> None:
        self.emit("supervisor", loop=loop, event="death", error=error)
        if self.recorder is not None:
            self.recorder.dump("loop-death", detail=f"{loop}: {error}")

    # -- discovery -----------------------------------------------------------

    def record_bond(self, node_id: bytes, ok: bool) -> None:
        self.emit("bond", node_id=node_id, ok=ok)

    def record_datagram_fault(self, fault: str) -> None:
        self.emit("datagram_fault", fault=fault)


#: shared no-op default — no journal, no recorder, nothing recorded
NULL_TELEMETRY = Telemetry()
