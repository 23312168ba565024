"""The structured measurement journal: one JSONL record per observation.

The paper's entire analysis pipeline (§4–§6) is derived from NodeFinder's
log of HELLO / STATUS / DISCONNECT / DAO-check events with timestamps and
connection metadata.  :class:`EventJournal` is that log made machine
readable: an append-only JSON-lines stream where every record carries the
schema version, an event ``type``, a ``ts`` stamped from the *injected*
clock, and the event's flat fields.  :func:`iter_events` round-trips the
stream back into :class:`Event` objects one record at a time
(:func:`read_events` is the same reader collected into a list), so a
crawl is replayable into the same analyses that consume a live run.

Event types emitted by the instrumented stack (see DESIGN.md §7 for the
full field tables):

==================  ====================================================
``dial``            one per harvest attempt: outcome, stages, duration
``hello``           peer's HELLO: client_id, capabilities, listen_port
``status``          peer's STATUS: network_id, genesis/best hash, td
``disconnect``      reason code + name, which side sent it
``dao``             DAO-fork verdict: supports | opposes | empty
``bond``            discovery endpoint-proof outcome
``breaker``         circuit-breaker state transition; v3 adds the
                    optional ``scope`` (``peer`` default | ``subnet``)
                    and, for subnet scope, the ``subnet`` prefix
``retry``           one backoff wait before a re-attempt
``supervisor``      crawler-loop crash / restart / death
``datagram_fault``  chaos fault injected into the UDP discovery socket
``inbound``         served-side milestones on a FullNode
``crawler``         (v3) the crawler's own enode identity + name
``table_admission`` (v3) a routing-table admission guard refused a
                    candidate: node_id, ip, subnet, reason
``reshard``         (v4) a shard handoff sealed this journal segment:
                    action (split|merge), step, generation, the parent
                    prefix range and the child ranges it became
==================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import inf, isfinite
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, TextIO, Union

from repro.errors import ReproError

#: bump when a record's meaning changes; readers reject unknown versions.
#: v2 (analysis-ingest PR) added optional fields: ``dial.started`` (the
#: attempt's start timestamp — ``ts`` is stamped when the record is
#: written, after the dial finished), ``dial.tcp_port``, and
#: ``status.best_block`` / ``status.head_height`` (freshness inputs).
#: v3 (adversary PR) added the ``crawler`` and ``table_admission``
#: event types and the optional ``breaker.scope``/``breaker.subnet``
#: fields for subnet-dimension breaker trips.
#: v4 (elastic-sharding PR) added the ``reshard`` event type: the final
#: record of a sealed journal segment, carrying the split/merge action,
#: the controller step, the minted generation, and the old/new prefix
#: ranges so replay can stitch generation-suffixed segments together.
SCHEMA_VERSION = 4

#: keys every record carries outside its event-specific fields
_RESERVED = ("v", "type", "ts")
_RESERVED_SET = frozenset(_RESERVED)

#: one shared encoder — ``json.dumps`` with keyword arguments constructs a
#: fresh ``JSONEncoder`` per call, measurable at journal rates
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: ...and one shared decoder, called at ``raw_decode``: the reader hands it
#: stripped lines, so ``json.loads``' two whitespace scans and two call
#: frames per record buy nothing
_DECODE = json.JSONDecoder().raw_decode


class JournalError(ReproError):
    """A journal stream violated the schema (bad JSON, unknown version).

    ``torn`` marks errors consistent with a torn final line from a
    crashed writer (truncated JSON, missing keys) — :func:`iter_events`
    tolerates those on the last line of a stream.  A recognised-but-
    unknown schema version, or a ``v`` / ``type`` / ``ts`` of the wrong
    JSON type, is never torn: the line parsed fine and the reader
    genuinely cannot interpret it.
    """

    def __init__(self, message: str, torn: bool = False) -> None:
        super().__init__(message)
        self.torn = torn


def _at(lineno: int, message: str) -> str:
    return f"line {lineno}: {message}" if lineno else message


def _unknown_version(lineno: int, version: Any) -> JournalError:
    return JournalError(
        _at(
            lineno,
            f"unknown schema version {version!r} "
            f"(this reader speaks 1..{SCHEMA_VERSION})",
        )
    )


def _upgrade_v1(record: Dict[str, Any]) -> Dict[str, Any]:
    """v1 → v2: the new keys (``dial.started``/``tcp_port``,
    ``status.best_block``/``head_height``) are optional, so a v1 record
    is a valid v2 record without them; replay falls back to the record's
    ``ts`` / field defaults."""
    return record


def _upgrade_v2(record: Dict[str, Any]) -> Dict[str, Any]:
    """v2 → v3: purely additive — the new event types (``crawler``,
    ``table_admission``) and the ``breaker.scope``/``subnet`` fields are
    optional; a ``breaker`` record without ``scope`` is peer-scope."""
    return record


def _upgrade_v3(record: Dict[str, Any]) -> Dict[str, Any]:
    """v3 → v4: purely additive — a v3 journal simply predates elastic
    sharding and contains no ``reshard`` records; nothing to rewrite."""
    return record


#: migration shim: maps an old schema version to the one-step upgrade
#: toward ``version + 1``; chained until :data:`SCHEMA_VERSION` so old
#: journals keep replaying
MIGRATIONS: Dict[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    1: _upgrade_v1,
    2: _upgrade_v2,
    3: _upgrade_v3,
}


@dataclass(slots=True)
class Event:
    """One journal record."""

    type: str
    ts: float
    fields: Dict[str, Any] = field(default_factory=dict)
    v: int = SCHEMA_VERSION

    def to_json(self) -> str:
        fields = self.fields
        if not _RESERVED_SET.isdisjoint(fields):
            for key in fields:
                if key in _RESERVED_SET:
                    raise JournalError(
                        f"field {key!r} collides with a reserved key"
                    )
        record = {"v": self.v, "type": self.type, "ts": self.ts}
        record.update(fields)
        return _ENCODE(record)

    @classmethod
    def from_json(cls, line: str, lineno: int = 0) -> "Event":
        """Decode one record; every way it can fail is a :class:`JournalError`.

        ``v`` must be an integer the reader speaks, ``type`` a string and
        ``ts`` a finite number — a consumer may key a merge on ``ts`` and
        count by ``type`` without looking again.
        """
        line = line.strip()
        try:
            record, end = _DECODE(line)
        except (ValueError, RecursionError) as exc:
            raise JournalError(
                _at(lineno, f"not valid JSON: {exc}"), torn=True
            ) from exc
        if end != len(line):
            raise JournalError(
                _at(lineno, f"not valid JSON: extra data after char {end}"),
                torn=True,
            )
        if not isinstance(record, dict):
            raise JournalError(_at(lineno, "record is not an object"), torn=True)
        version = record.pop("v", None)
        if type(version) is not int:  # bool is not a version either
            raise _unknown_version(lineno, version)
        if version != SCHEMA_VERSION:
            while version in MIGRATIONS:
                record = MIGRATIONS[version](record)
                version += 1
            if version != SCHEMA_VERSION:
                raise _unknown_version(lineno, version)
        try:
            event_type = record.pop("type")
            ts = record.pop("ts")
        except KeyError as exc:
            raise JournalError(_at(lineno, f"missing key {exc}"), torn=True) from exc
        if type(event_type) is not str:
            raise JournalError(_at(lineno, f"type {event_type!r} is not a string"))
        stamp = ts
        if type(ts) is int:
            try:
                stamp = float(ts)
            except OverflowError:
                stamp = inf
        if type(stamp) is not float or not isfinite(stamp):
            raise JournalError(_at(lineno, f"ts {ts!r} is not a finite number"))
        return cls(event_type, stamp, record, SCHEMA_VERSION)


class EventJournal:
    """Append-only JSONL writer over any text stream.

    The journal does not read a clock: timestamps arrive on the events,
    stamped by the :class:`~repro.telemetry.hub.Telemetry` facade from
    its injected clock, so the journal's timeline is exactly the
    scheduler's timeline.
    """

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._owns_stream = False
        self.events_written = 0
        self._unflushed = 0
        self._sealed = False
        self._closed = False

    @classmethod
    def open(cls, path: Union[str, Path]) -> "EventJournal":
        journal = cls(open(path, "a", encoding="utf-8"))
        journal._owns_stream = True
        return journal

    def emit(self, event: Event) -> None:
        if self._sealed:
            raise JournalError("journal segment is sealed; no further events")
        self._stream.write(event.to_json() + "\n")
        self.events_written += 1
        self._unflushed += 1

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Permanently finish this segment: flush, close, refuse emits.

        A reshard handoff seals the parent shard's segment right after
        the ``reshard`` record is written, so the file on disk is a
        complete, immutable account of that range's lifetime.  Only the
        reshard coordinator may call this — the OWNERSHIP lint family
        enforces it.
        """
        self._sealed = True
        self.close()

    @property
    def backlog(self) -> int:
        """Events written since the last flush (the shard health gauge)."""
        return self._unflushed

    def flush(self) -> None:
        self._stream.flush()
        self._unflushed = 0

    def close(self) -> None:
        # idempotent: a sealed segment is already closed when the crawl's
        # shutdown path sweeps every journal it knows about
        if self._closed:
            return
        self._closed = True
        self.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_events(
    source: Union[str, Path, TextIO, Iterable[str]],
    tolerate_torn_tail: bool = True,
) -> Iterator[Event]:
    """Parse a journal lazily (path, open stream, or lines), one record held.

    A journal written by a crawl that crashed (or was SIGKILLed) mid-write
    typically ends in one torn line — truncated JSON with no newline.
    With ``tolerate_torn_tail`` (the default) that final line is dropped
    instead of raised, so a crashed crawl's journal still replays; torn
    lines *before* the tail, and unknown schema versions anywhere, always
    raise :class:`JournalError` with the line number — and the file's
    name, when the source is a path.  Being a generator, it opens a path
    at the first ``next()`` and raises where the bad line *is*: the
    events before it have been yielded by then.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            try:
                yield from _parse_lines(stream, tolerate_torn_tail)
            except JournalError as exc:
                raise JournalError(
                    f"{Path(source).name} {exc}", torn=exc.torn
                ) from exc
    else:
        yield from _parse_lines(source, tolerate_torn_tail)


def read_events(
    source: Union[str, Path, TextIO, Iterable[str]],
    tolerate_torn_tail: bool = True,
) -> List[Event]:
    """:func:`iter_events`, collected: the whole journal as a list."""
    return list(iter_events(source, tolerate_torn_tail))


def _parse_lines(lines: Iterable[str], tolerate_torn_tail: bool) -> Iterator[Event]:
    from_json = Event.from_json
    rest = iter(lines)
    for lineno, line in enumerate(rest, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = from_json(line, lineno)
        except JournalError as exc:
            # a torn line is the tail only if nothing but blanks follows it
            if tolerate_torn_tail and exc.torn and not any(
                later.strip() for later in rest
            ):
                return
            raise
        yield event
