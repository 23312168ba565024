"""The Telemetry facade: one object bundling journal + clock + profiler.

Instrumented code (``nodefinder.wire``, ``nodefinder.live``,
``discovery.protocol``) takes a :class:`Telemetry` and
calls its ``record_*`` methods; the facade turns each observation into
records of the structured
:class:`~repro.telemetry.journal.EventJournal` (when one is attached).  All
timestamps come from the single injected clock (OBS-CLOCK enforces that
no wall clock is read here), so spans and journal share one timeline.

``NULL_TELEMETRY`` is the no-op default: no journal, so
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
    """Spans + journal + profiler behind one injectable seam."""

    def __init__(
        self,
        journal: Optional[JournalSink] = None,
        clock: Optional[Callable[[], float]] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.journal = journal
        #: hot-path attribution sink; the shared no-op by default, so
        #: ``with telemetry.profiler.scope(...)`` costs next to nothing
        #: on unprofiled runs
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def with_journal(
        self, journal: JournalSink, clock: Callable[[], float]
    ) -> "Telemetry":
        """This facade, journaling to ``journal`` on ``clock`` — what a
        crawler given a journal opener makes of the facade it was handed."""
        return Telemetry(journal=journal, clock=clock, profiler=self.profiler)

    # -- primitives ---------------------------------------------------------

    def start_span(self, name: str) -> Span:
        return Span(name, self.clock)

    def emit(
        self, event_type: str, node_id: Optional[bytes] = None, **fields
    ) -> None:
        """Journal one event (no-op without a journal).

        ``node_id`` is journaled as hex and, as bytes, places the record;
        ``None`` fields are left out."""
        if self.journal is None:
            return
        clean = {key: value for key, value in fields.items() if value is not None}
        if node_id is not None:
            clean["node_id"] = node_id.hex()
        event = Event(type=event_type, ts=self.clock(), fields=clean)
        with self.profiler.scope("journal.append"):
            self.journal.write_lines(event.to_json() + "\n", 1, node_id)

    # -- harvest ------------------------------------------------------------

    def record_dial(self, result: "DialResult", span: Optional[Span] = None) -> None:
        """One completed harvest: the journal's dial / hello /
        status / dao / disconnect records — the dial's carrying the span's
        stage durations — encoded straight from the result's values and
        handed to the journal in one write."""
        if self.journal is None:
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
                attempt=1,  # a dial is one attempt; the field keeps old bytes
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
        with self.profiler.scope("journal.append"):
            self.journal.write_lines(
                "\n".join(lines) + "\n", len(lines), result.node_id
            )

    def record_breaker(
        self, node_id: bytes, old: "BreakerState", new: "BreakerState"
    ) -> None:
        self.emit("breaker", node_id=node_id, old=old.value, new=new.value)

    def record_subnet_breaker(
        self, subnet: str, old: "BreakerState", new: "BreakerState"
    ) -> None:
        """A subnet-scope breaker changed state (coordinated-failure guard)."""
        self.emit(
            "breaker", scope="subnet", subnet=subnet, old=old.value, new=new.value
        )

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

    def record_loop_restart(self, loop: str) -> None:
        self.emit("supervisor", loop=loop, event="restart")

    def record_loop_death(self, loop: str, error: str) -> None:
        self.emit("supervisor", loop=loop, event="death", error=error)

    # -- discovery -----------------------------------------------------------

    def record_bond(self, node_id: bytes, ok: bool) -> None:
        self.emit("bond", node_id=node_id, ok=ok)


#: shared no-op default — no journal, nothing recorded
NULL_TELEMETRY = Telemetry()
