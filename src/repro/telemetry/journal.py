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
``dial``            one per harvest: outcome, stages, duration
``hello``           peer's HELLO: client_id, capabilities, listen_port
``status``          peer's STATUS: network_id, genesis/best hash, td
``disconnect``      reason code + name, which side sent it
``dao``             DAO-fork verdict: supports | opposes | empty
``bond``            discovery endpoint-proof outcome
``breaker``         circuit-breaker state transition; v3 adds the
                    optional ``scope`` (``peer`` default | ``subnet``)
                    and, for subnet scope, the ``subnet`` prefix
``retry``           (old journals only) one backoff wait before an
                    in-place re-dial
``supervisor``      crawler-loop crash / restart / death
``inbound``         served-side milestones on a FullNode
``crawler``         (v3) the crawler's own enode identity + name
``table_admission`` (v3) a routing-table admission guard refused a
                    candidate: node_id, ip, subnet, reason
``reshard``         (v4) written only by older crawls, whose shard plan
                    could split and merge mid-crawl: the last record of
                    a segment file, naming the plan change; replay
                    counts it and reads nothing from it
==================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import inf, isfinite
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.errors import ReproError

#: bump when a record's meaning changes; readers reject unknown versions.
#: v2 (analysis-ingest PR) added optional fields: ``dial.started`` (the
#: attempt's start timestamp — ``ts`` is stamped when the record is
#: written, after the dial finished), ``dial.tcp_port``, and
#: ``status.best_block`` / ``status.head_height`` (freshness inputs).
#: v3 (adversary PR) added the ``crawler`` and ``table_admission``
#: event types and the optional ``breaker.scope``/``breaker.subnet``
#: fields for subnet-dimension breaker trips.
#: v4 added the ``reshard`` event type, which only older crawls wrote: the
#: final record of a segment file whose shard range was split or merged
#: mid-crawl (action, controller step, generation, old/new prefix ranges).
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


def _value(value: Any) -> str:
    """``value`` spelt exactly as ``_ENCODE`` spells it inside a record."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    # an exact int, or a finite exact float (NaN fails both comparisons):
    # int.__repr__ / float.__repr__, as the reference spells them
    if kind is int or (kind is float and -inf < value < inf):
        return repr(value)
    return _ENCODE(value)  # bool, IntEnum, NaN, ±inf, containers


# -- the dial-family line encoders --------------------------------------------
#
# One straight-line encoder per record type a harvest writes, and the
# only producer of those lines: ``Telemetry.record_dial`` calls them with a
# ``DialResult``'s values, ``Event.to_json`` with an event's fields.  Each
# returns exactly ``_ENCODE({"v", "type", "ts", **fields})`` with the ``None``
# fields left out: the keys in sorted order, every value spelt by ``_value``.
# The keyword parameters after ``ts`` are the type's DESIGN §7 schema.


_DIAL_TAIL = f',"type":"dial","v":{SCHEMA_VERSION}}}'
_HELLO_TAIL = f',"type":"hello","v":{SCHEMA_VERSION}}}'
_STATUS_TAIL = f',"type":"status","v":{SCHEMA_VERSION}}}'
_DAO_TAIL = f',"type":"dao","v":{SCHEMA_VERSION}'  # ``verdict`` sorts after ``v``
_DISCONNECT_TAIL = f',"type":"disconnect","v":{SCHEMA_VERSION}}}'


def dial_line(
    ts: float,
    node_id: Optional[str] = None,
    ip: Optional[str] = None,
    tcp_port: Optional[int] = None,
    started: Optional[float] = None,
    outcome: Optional[str] = None,
    connection_type: Optional[str] = None,
    duration: Optional[float] = None,
    latency: Optional[float] = None,
    attempt: Optional[int] = None,
    stages: Optional[Dict[str, float]] = None,
    failure_stage: Optional[str] = None,
    failure_detail: Optional[str] = None,
) -> str:
    # every dial writes this record, so each value's usual type is spelt
    # inline and only the rest pay for the call into ``_value``
    return "".join((
        "{",
        "" if attempt is None else
        f'"attempt":{repr(attempt) if type(attempt) is int else _value(attempt)},',
        "" if connection_type is None else
        f'"connection_type":{_quote(connection_type) if type(connection_type) is str else _value(connection_type)},',
        "" if duration is None else
        f'"duration":{repr(duration) if type(duration) is float and -inf < duration < inf else _value(duration)},',
        "" if failure_detail is None else f'"failure_detail":{_value(failure_detail)},',
        "" if failure_stage is None else f'"failure_stage":{_value(failure_stage)},',
        "" if ip is None else f'"ip":{_quote(ip) if type(ip) is str else _value(ip)},',
        "" if latency is None else
        f'"latency":{repr(latency) if type(latency) is float and -inf < latency < inf else _value(latency)},',
        "" if node_id is None else
        f'"node_id":{_quote(node_id) if type(node_id) is str else _value(node_id)},',
        "" if outcome is None else
        f'"outcome":{_quote(outcome) if type(outcome) is str else _value(outcome)},',
        "" if stages is None else f'"stages":{_value(stages)},',
        "" if started is None else
        f'"started":{repr(started) if type(started) is float and -inf < started < inf else _value(started)},',
        "" if tcp_port is None else
        f'"tcp_port":{repr(tcp_port) if type(tcp_port) is int else _value(tcp_port)},',
        f'"ts":{repr(ts) if type(ts) is float and -inf < ts < inf else _value(ts)}',
        _DIAL_TAIL,
    ))


def hello_line(
    ts: float,
    node_id: Optional[str] = None,
    client_id: Optional[str] = None,
    capabilities: Optional[List[List[Any]]] = None,
    listen_port: Optional[int] = None,
) -> str:
    return "".join((
        "{",
        "" if capabilities is None else f'"capabilities":{_value(capabilities)},',
        "" if client_id is None else f'"client_id":{_value(client_id)},',
        "" if listen_port is None else f'"listen_port":{_value(listen_port)},',
        "" if node_id is None else f'"node_id":{_value(node_id)},',
        f'"ts":{_value(ts)}',
        _HELLO_TAIL,
    ))


def status_line(
    ts: float,
    node_id: Optional[str] = None,
    network_id: Optional[int] = None,
    genesis_hash: Optional[str] = None,
    best_hash: Optional[str] = None,
    best_block: Optional[int] = None,
    head_height: Optional[int] = None,
    total_difficulty: Optional[int] = None,
) -> str:
    return "".join((
        "{",
        "" if best_block is None else f'"best_block":{_value(best_block)},',
        "" if best_hash is None else f'"best_hash":{_value(best_hash)},',
        "" if genesis_hash is None else f'"genesis_hash":{_value(genesis_hash)},',
        "" if head_height is None else f'"head_height":{_value(head_height)},',
        "" if network_id is None else f'"network_id":{_value(network_id)},',
        "" if node_id is None else f'"node_id":{_value(node_id)},',
        "" if total_difficulty is None else
        f'"total_difficulty":{_value(total_difficulty)},',
        f'"ts":{_value(ts)}',
        _STATUS_TAIL,
    ))


def dao_line(
    ts: float, node_id: Optional[str] = None, verdict: Optional[str] = None
) -> str:
    return "".join((
        "{",
        "" if node_id is None else f'"node_id":{_value(node_id)},',
        f'"ts":{_value(ts)}',
        _DAO_TAIL,
        "" if verdict is None else f',"verdict":{_value(verdict)}',
        "}",
    ))


def disconnect_line(
    ts: float,
    node_id: Optional[str] = None,
    reason: Optional[int] = None,
    reason_name: Optional[str] = None,
    sent_by: Optional[str] = None,
) -> str:
    return "".join((
        "{",
        "" if node_id is None else f'"node_id":{_value(node_id)},',
        "" if reason is None else f'"reason":{_value(reason)},',
        "" if reason_name is None else f'"reason_name":{_value(reason_name)},',
        "" if sent_by is None else f'"sent_by":{_value(sent_by)},',
        f'"ts":{_value(ts)}',
        _DISCONNECT_TAIL,
    ))


#: record type -> the one encoder of its lines
_LINE_ENCODERS: Dict[str, Callable[..., str]] = {
    "dial": dial_line,
    "hello": hello_line,
    "status": status_line,
    "dao": dao_line,
    "disconnect": disconnect_line,
}


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


@dataclass(slots=True)
class Event:
    """One journal record."""

    type: str
    ts: float
    fields: Dict[str, Any] = field(default_factory=dict)
    v: int = SCHEMA_VERSION

    def to_json(self) -> str:
        """The record's line.  A dial-family record whose fields are all in
        its schema is spelt by its type's encoder (``None`` fields left
        out); any other record by ``_ENCODE``, the encoders' reference."""
        fields = self.fields
        encoder = _LINE_ENCODERS.get(self.type)
        if encoder is not None and type(self.v) is int and self.v == SCHEMA_VERSION:
            try:
                return encoder(self.ts, **fields)
            except TypeError:
                # a field outside the schema, which the reference spells —
                # or a value json cannot spell, which it raises on again
                pass
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
        # every schema step so far only added optional fields and record
        # types, so an older record reads as a current one unchanged
        # (bool is not a version either)
        if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
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
        self._closed = False

    @classmethod
    def open(cls, path: Union[str, Path]) -> "EventJournal":
        journal = cls(open(path, "a", encoding="utf-8"))
        journal._owns_stream = True
        return journal

    def emit(self, event: Event) -> None:
        self.write_lines(event.to_json() + "\n")

    def write_lines(
        self, text: str, records: int = 1, node_id: Optional[bytes] = None
    ) -> None:
        """Append ``records`` encoded lines, ``text``, in one write.

        ``node_id`` is the node the lines are about; a single file has no
        choice to make with it (the crawl's journal router places on it).
        A closed journal refuses the write and counts nothing.
        """
        if self._closed:
            raise JournalError("journal is closed; no further events")
        self._stream.write(text)
        self.events_written += records

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        # idempotent: a crawl's shutdown may sweep a journal twice
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
