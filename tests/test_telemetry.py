"""Unit coverage for ``repro.telemetry``: journal round-trip, spans, the
facade's event mapping, and the health page's fold and quantile math."""

import io
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devp2p.messages import DisconnectReason
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.nodefinder.records import DialOutcome, DialResult
from repro.telemetry import (
    Event,
    EventJournal,
    JournalError,
    SCHEMA_VERSION,
    Span,
    Telemetry,
    iter_events,
    read_events,
    render_top,
)
from repro.telemetry.health import quantile
from repro.telemetry.journal import (
    _ENCODE,
    dao_line,
    dial_line,
    disconnect_line,
    hello_line,
    status_line,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- stage-latency quantiles ------------------------------------------------


class TestQuantileMath:
    """The health page's stage latencies are exact quantiles of the
    journal's per-stage durations: the sample at rank ``floor(q * n)``."""

    def test_empty_histogram_is_zero(self):
        assert quantile([], 0.5) == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            quantile([0.1], 1.5)
        with pytest.raises(ValueError):
            quantile([0.1], -0.1)

    def test_exact_boundary_rank(self):
        samples = [n / 10 for n in range(1, 11)]
        assert quantile(samples, 0.0) == 0.1
        # rank 5 of 10: the upper-middle sample
        assert quantile(samples, 0.5) == 0.6
        assert quantile(samples, 0.95) == 1.0
        # p100 is the worst single observation
        assert quantile(samples, 1.0) == 1.0
        assert quantile([0.2], 1.0) == 0.2


# -- journal ----------------------------------------------------------------


class TestJournal:
    def test_round_trip_exact(self):
        events = [
            Event(type="dial", ts=1.5, fields={"outcome": "full-harvest", "n": 3}),
            Event(type="hello", ts=2.0, fields={"client_id": "Geth/v1.7.3"}),
            Event(type="disconnect", ts=2.5, fields={"reason": 4}),
        ]
        stream = io.StringIO()
        with EventJournal(stream) as journal:
            for event in events:
                journal.emit(event)
            assert journal.events_written == 3
        assert read_events(stream.getvalue().splitlines()) == events

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "crawl.jsonl"
        with EventJournal.open(path) as journal:
            journal.emit(Event(type="dao", ts=9.0, fields={"verdict": "supports"}))
        [event] = read_events(path)
        assert event.type == "dao"
        assert event.fields == {"verdict": "supports"}
        assert event.v == SCHEMA_VERSION

    def test_records_carry_schema_version(self):
        line = Event(type="dial", ts=0.0).to_json()
        assert f'"v":{SCHEMA_VERSION}' in line

    def test_unknown_version_rejected(self):
        line = '{"v":99,"type":"dial","ts":0}'
        with pytest.raises(JournalError, match="schema version"):
            Event.from_json(line)

    def test_unknown_version_names_line_number(self):
        lines = [
            Event(type="dial", ts=0.0).to_json(),
            '{"v":99,"type":"dial","ts":1}',
            Event(type="dial", ts=2.0).to_json(),
        ]
        with pytest.raises(JournalError, match="line 2.*schema version"):
            read_events(lines)
        # ...even on the final line: an unknown version parsed fine, so it
        # is an incompatibility, not a torn tail
        with pytest.raises(JournalError, match="line 2.*schema version"):
            read_events(lines[:2])

    def test_v1_journal_migrates_forward(self):
        event = Event.from_json('{"v":1,"type":"dial","ts":3.5,"outcome":"timeout"}')
        assert event.v == SCHEMA_VERSION
        assert event.type == "dial"
        assert event.fields == {"outcome": "timeout"}

    def test_reserved_key_collision_rejected(self):
        event = Event(type="dial", ts=0.0, fields={"ts": 1.0})
        with pytest.raises(JournalError, match="reserved"):
            event.to_json()

    def test_bad_json_reports_line_number(self):
        good = '{"v":1,"type":"a","ts":0}'
        with pytest.raises(JournalError, match="line 2"):
            read_events([good, "{nope", good])

    def test_torn_final_line_tolerated(self):
        good = Event(type="dial", ts=0.0, fields={"outcome": "timeout"}).to_json()
        torn = good[: len(good) // 2]  # crashed writer: truncated, no newline
        assert read_events([good, good, torn]) == read_events([good, good])
        # strict mode still raises, with the line number
        with pytest.raises(JournalError, match="line 3"):
            read_events([good, good, torn], tolerate_torn_tail=False)

    def test_torn_line_mid_stream_still_raises(self):
        good = Event(type="dial", ts=0.0).to_json()
        with pytest.raises(JournalError, match="line 1"):
            read_events([good[:10], good])

    def test_blank_lines_skipped(self):
        lines = ["", '{"v":1,"type":"a","ts":0}', "   "]
        assert len(read_events(lines)) == 1

    def test_blank_lines_after_torn_tail_still_tolerated(self):
        good = Event(type="dial", ts=0.0).to_json()
        assert read_events([good, good[:9], "", "  "]) == read_events([good])

    def test_closed_journal_refuses_writes(self, tmp_path):
        journal = EventJournal.open(tmp_path / "crawl.jsonl")
        journal.emit(Event(type="dial", ts=1.0))
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.emit(Event(type="dial", ts=2.0))
        with pytest.raises(JournalError, match="closed"):
            journal.write_lines(Event(type="dial", ts=2.0).to_json() + "\n")
        assert journal.events_written == 1
        assert len(read_events(tmp_path / "crawl.jsonl")) == 1


    def test_events_are_slotted(self):
        # one per journal line on the read side: no per-instance dict
        event = Event(type="dial", ts=0.0)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_iter_events_is_lazy_and_is_the_list_reader(self, tmp_path):
        good = Event(type="dial", ts=0.0).to_json()
        stream = iter_events([good, "{nope", good])
        assert next(stream).type == "dial"  # yielded before the bad line is read
        with pytest.raises(JournalError, match="line 2"):
            next(stream)
        path = tmp_path / "crawl.jsonl"
        path.write_text(good + "\n" + good + "\n", encoding="utf-8")
        assert list(iter_events(path)) == read_events(path) == read_events([good] * 2)

    def test_error_names_the_file_when_the_source_is_a_path(self, tmp_path):
        good = Event(type="dial", ts=0.0).to_json()
        path = tmp_path / "nodefinder-0-shard2.jsonl"
        path.write_text(f"{good}\n{good[:10]}\n{good}\n", encoding="utf-8")
        with pytest.raises(JournalError) as caught:
            read_events(str(path))
        assert str(caught.value).startswith(
            "nodefinder-0-shard2.jsonl line 2: not valid JSON"
        )
        assert caught.value.torn
        with open(path, encoding="utf-8") as stream:  # a stream has no name to give
            with pytest.raises(JournalError, match="^line 2: not valid JSON"):
                read_events(stream)

    @pytest.mark.parametrize(
        "record, complaint",
        [
            ('{"v":4,"type":"dial","ts":null}', "ts None is not a finite number"),
            ('{"v":4,"type":"dial","ts":"abc"}', "ts 'abc' is not a finite number"),
            ('{"v":4,"type":"dial","ts":"1.5"}', "ts '1.5' is not a finite number"),
            ('{"v":4,"type":"dial","ts":true}', "ts True is not a finite number"),
            ('{"v":4,"type":"dial","ts":[1]}', "is not a finite number"),
            ('{"v":4,"type":"dial","ts":NaN}', "ts nan is not a finite number"),
            ('{"v":4,"type":"dial","ts":1e999}', "ts inf is not a finite number"),
            ('{"v":4,"type":"dial","ts":-Infinity}', "ts -inf is not a finite number"),
            ('{"v":4,"type":"dial","ts":1' + "0" * 400 + "}", "is not a finite number"),
            ('{"v":[1],"type":"dial","ts":0}', "unknown schema version [1]"),
            ('{"v":{},"type":"dial","ts":0}', "unknown schema version {}"),
            ('{"v":true,"type":"dial","ts":0}', "unknown schema version True"),
            ('{"v":4.0,"type":"dial","ts":0}', "unknown schema version 4.0"),
            ('{"v":"4","type":"dial","ts":0}', "unknown schema version '4'"),
            ('{"v":4,"type":["x"],"ts":0}', "type ['x'] is not a string"),
            ('{"v":4,"type":null,"ts":0}', "type None is not a string"),
            ('{"v":1,"type":7,"ts":0}', "type 7 is not a string"),
        ],
    )
    def test_wrongly_typed_reserved_key_is_a_journal_error(self, record, complaint):
        """The line parsed; the reader cannot interpret it — so it is a
        typed error with the line number, never torn, never let through
        for ``replay`` or a merge keyed on ``ts`` to trip over."""
        good = Event(type="dial", ts=0.0).to_json()
        with pytest.raises(JournalError) as caught:
            read_events([good, record])
        assert str(caught.value).startswith("line 2: ")
        assert complaint in str(caught.value)
        assert not caught.value.torn

    def test_integer_ts_is_still_read_as_a_float(self):
        [event] = read_events(['{"v":4,"type":"dial","ts":3}'])
        assert event.ts == 3.0 and type(event.ts) is float

    def test_nesting_too_deep_to_parse_is_a_journal_error(self):
        with pytest.raises(JournalError, match="line 1: not valid JSON"):
            read_events(["[" * 100_000, Event(type="dial", ts=0.0).to_json()])


# -- the reader against a per-line ``json.loads`` reference -------------------------

_GOOD = Event(type="dial", ts=1.5, fields={"outcome": "timeout"}).to_json()
_HOSTILE_LINES = [
    _GOOD,
    Event(type="hello", ts=2.0, fields={"client_id": "Geth/v1.8.0"}).to_json(),
    '{"v":1,"type":"dial","ts":3,"outcome":"refused"}',
    '{"v":2,"type":"status","ts":4.0,"best_block":7}',
    '{"v":3,"type":"crawler","ts":5.0,"name":"nodefinder-0"}',
    "",
    "   ",
    "\t\n",
    _GOOD + "\n",
    "  " + _GOOD + " \r\n",
    "\x0c" + _GOOD,  # str.strip() whitespace that is not JSON whitespace
    _GOOD + ' {"x":1}',  # extra data after the object
    _GOOD + "x",
    _GOOD + _GOOD,
    _GOOD[:10],  # torn
    _GOOD[:-1],
    '{"a":"}',  # these two parse as ONE record if lines are ever joined
    '{","b":1}',
    "[1,2]",
    "3",
    '"dial"',
    "null",
    '{"v":99,"type":"dial","ts":0}',
    '{"type":"dial","ts":0}',
    '{"v":4,"type":"dial"}',
    '{"v":4,"ts":1}',
]


def _reference_read(lines, tolerate_torn_tail):
    """The reader's contract at its plainest: ``json.loads`` per stripped
    line, versions 1..4, a torn line forgiven only as the last non-blank
    one.  Returns the events, or ``(torn, line number)`` of the error."""
    stripped = [line.strip() for line in lines]
    last = max((i for i, line in enumerate(stripped) if line), default=-1)
    events = []
    for index, line in enumerate(stripped):
        if not line:
            continue
        try:
            record = json.loads(line)
            if record.pop("v", None) not in (1, 2, 3, 4):
                return (False, index + 1)
            events.append(Event(record.pop("type"), float(record.pop("ts")), record))
        except (ValueError, AttributeError, TypeError, KeyError):
            # not JSON / not an object (no .pop, or list.pop("v")) / key missing
            if tolerate_torn_tail and index == last:
                break
            return (True, index + 1)
    return events


class TestReaderAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(_HOSTILE_LINES), max_size=8),
        tolerate_torn_tail=st.booleans(),
    )
    def test_same_events_or_same_error(self, lines, tolerate_torn_tail):
        try:
            got = read_events(lines, tolerate_torn_tail=tolerate_torn_tail)
        except JournalError as exc:
            lineno = int(re.match(r"line (\d+): ", str(exc)).group(1))
            got = (exc.torn, lineno)
        assert got == _reference_read(lines, tolerate_torn_tail)
        # a stream and a one-shot iterator read like the list of lines
        if isinstance(got, list):
            text = "\n".join(line.rstrip("\n") for line in lines)
            assert read_events(io.StringIO(text), tolerate_torn_tail) == got
            assert list(iter_events(iter(lines), tolerate_torn_tail)) == got


# -- the dial-family encoders against the reference encoder ------------------

#: DESIGN §7's field tables for the records a harvest attempt writes
SCHEMAS = {
    "dial": (
        "node_id", "ip", "tcp_port", "outcome", "connection_type", "started",
        "duration", "latency", "attempt", "stages", "failure_stage",
        "failure_detail",
    ),
    "hello": ("node_id", "client_id", "capabilities", "listen_port"),
    "status": (
        "node_id", "network_id", "genesis_hash", "best_hash", "best_block",
        "head_height", "total_difficulty",
    ),
    "dao": ("node_id", "verdict"),
    "disconnect": ("node_id", "reason", "reason_name", "sent_by"),
}
ENCODERS = {
    "dial": dial_line,
    "hello": hello_line,
    "status": status_line,
    "dao": dao_line,
    "disconnect": disconnect_line,
}
#: one ordinary value per field, for the every-subset sweep
ORDINARY = {
    "node_id": "ab" * 64, "ip": "10.0.0.1", "tcp_port": 30303,
    "outcome": "full-harvest", "connection_type": "static-dial",
    "started": 1.25, "duration": 0.4, "latency": 0.05, "attempt": 2,
    "stages": {"hello": 0.25, "connect": 0.1}, "failure_stage": "connect",
    "failure_detail": "stalled", "client_id": "Geth/v1.8.2",
    "capabilities": [["eth", 62], ["eth", 63]], "listen_port": 30303,
    "network_id": 1, "genesis_hash": "11" * 32, "best_hash": "22" * 32,
    "best_block": 5_000_000, "head_height": 5_000_100,
    "total_difficulty": 10**21, "verdict": "supports", "reason": 4,
    "reason_name": "too-many-peers", "sent_by": "remote",
}


def _reference_line(record_type, ts, fields):
    """The record as ``_ENCODE`` spells it, ``None`` fields left out."""
    record = {"v": SCHEMA_VERSION, "type": record_type, "ts": ts}
    record.update({key: value for key, value in fields.items() if value is not None})
    return _ENCODE(record)


#: a peer's client_id and the other values a field can be handed
HOSTILE_SAMPLES = [
    '"', "\\", "\x00\x1f\x7f", "\n\t", "naïve 北京", "\ud800", "\udfff",
    'Geth/"v1.8"\\linux\x1b[0m',
    math.nan, math.inf, -math.inf, -0.0, 1e308, 5e-324,
    2**64, 2**64 + 1, -(2**70), 0,
    True, False, DisconnectReason.TOO_MANY_PEERS,
    [("eth", 63), ("les", 2**65)], [["eth", [1, {"x": None}]]],
    {"hello": math.nan, "connect": 0.25, "\ud800": -0.0},
]
_TEXT = st.text(alphabet=st.characters(exclude_categories=()))  # lone surrogates too
_HOSTILE = st.one_of(
    _TEXT,
    st.sampled_from(HOSTILE_SAMPLES),
    st.floats(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**64)),
    st.booleans(),
    st.sampled_from(list(DisconnectReason)),
    st.lists(st.tuples(_TEXT, st.integers(0, 2**70))),  # capabilities
    st.lists(st.lists(_TEXT | st.integers(), max_size=3), max_size=3),
    st.dictionaries(_TEXT, st.floats()),  # stages
)


class TestEncodersAgainstReference:
    @pytest.mark.parametrize("record_type", sorted(SCHEMAS))
    def test_every_present_absent_combination(self, record_type):
        keys = SCHEMAS[record_type]
        encoder = ENCODERS[record_type]
        for present in itertools.product((False, True), repeat=len(keys)):
            fields = {key: ORDINARY[key] for key, on in zip(keys, present) if on}
            expected = _reference_line(record_type, 7.5, fields)
            assert encoder(7.5, **fields) == expected
            assert Event(record_type, 7.5, fields).to_json() == expected

    @pytest.mark.parametrize("record_type", sorted(SCHEMAS))
    def test_every_hostile_sample_in_every_field(self, record_type):
        for key in ("ts",) + SCHEMAS[record_type]:
            for value in HOSTILE_SAMPLES:
                fields = dict.fromkeys(SCHEMAS[record_type])
                ts = value if key == "ts" else 7.5
                if key != "ts":
                    fields[key] = value
                expected = _reference_line(record_type, ts, fields)
                assert ENCODERS[record_type](ts, **fields) == expected, (key, value)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), record_type=st.sampled_from(sorted(SCHEMAS)))
    def test_hostile_values_are_spelt_as_the_reference_spells_them(
        self, data, record_type
    ):
        fields = {
            key: data.draw(st.none() | _HOSTILE, label=key)
            for key in SCHEMAS[record_type]
        }
        ts = data.draw(st.floats() | st.integers() | st.booleans(), label="ts")
        expected = _reference_line(record_type, ts, fields)
        assert ENCODERS[record_type](ts, **fields) == expected
        present = {key: value for key, value in fields.items() if value is not None}
        assert Event(record_type, ts, present).to_json() == expected

    def test_a_field_outside_the_schema_falls_back_and_round_trips(self):
        event = Event("dial", 1.5, {"outcome": "timeout", "extra": [1, {"b": None}]})
        line = event.to_json()
        assert line == _ENCODE(
            {"v": SCHEMA_VERSION, "type": "dial", "ts": 1.5, **event.fields}
        )
        assert Event.from_json(line) == event
        with pytest.raises(JournalError, match="reserved"):
            Event("hello", 0.0, {"ts": 1.0}).to_json()


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_children_time_their_stage(self):
        clock = FakeClock()
        span = Span("dial", clock)
        connect = span.child("connect")
        clock.advance(0.2)
        connect.finish()
        hello = span.child("hello")
        clock.advance(0.3)
        hello.finish()
        clock.advance(0.1)
        total = span.finish("full-harvest")
        assert total == pytest.approx(0.6)
        assert span.stage_durations() == {
            "connect": pytest.approx(0.2),
            "hello": pytest.approx(0.3),
        }
        assert span.outcome == "full-harvest"

    def test_finish_closes_open_children_with_same_outcome(self):
        clock = FakeClock()
        span = Span("dial", clock)
        span.child("status")  # left open, as an exception path would
        clock.advance(0.4)
        span.finish("hello-no-status")
        [child] = span.children
        assert child.outcome == "hello-no-status"
        assert child.duration == pytest.approx(0.4)

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        span = Span("dial", clock)
        clock.advance(0.1)
        first = span.finish()
        clock.advance(5.0)
        assert span.finish("ignored") == first
        assert span.outcome == "ok"


# -- facade -----------------------------------------------------------------


def full_result(**overrides):
    fields = dict(
        timestamp=0.0,
        node_id=b"\x01" * 64,
        ip="127.0.0.1",
        tcp_port=30303,
        connection_type="dynamic-dial",
        outcome=DialOutcome.FULL_HARVEST,
        duration=0.5,
        client_id="Geth/v1.7.3",
        capabilities=[("eth", 63)],
        listen_port=30303,
        network_id=1,
        genesis_hash=b"\x02" * 32,
        total_difficulty=17,
        best_hash=b"\x03" * 32,
        dao_side="supports",
    )
    fields.update(overrides)
    return DialResult(**fields)


class _CountingStream(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _hexed(raw):
    return raw.hex() if raw is not None else None


def _reference_dial_lines(result, ts, stages, attempt):
    """What ``record_dial`` journals for ``result``, built the plain way:
    one ``None``-filtered field dict per record through ``_ENCODE``."""
    node_id = result.node_id.hex()
    lines = [
        _reference_line("dial", ts, dict(
            node_id=node_id,
            ip=result.ip,
            tcp_port=result.tcp_port,
            started=result.timestamp,
            outcome=result.outcome.value,
            connection_type=result.connection_type,
            duration=result.duration,
            latency=result.latency or None,
            attempt=attempt,
            stages=stages or None,
            failure_stage=result.failure_stage,
            failure_detail=result.failure_detail,
        ))
    ]
    if result.client_id is not None:
        lines.append(_reference_line("hello", ts, dict(
            node_id=node_id,
            client_id=result.client_id,
            capabilities=[list(cap) for cap in result.capabilities or []],
            listen_port=result.listen_port,
        )))
    if result.network_id is not None:
        lines.append(_reference_line("status", ts, dict(
            node_id=node_id,
            network_id=result.network_id,
            genesis_hash=_hexed(result.genesis_hash),
            best_hash=_hexed(result.best_hash),
            best_block=result.best_block,
            head_height=result.head_height,
            total_difficulty=result.total_difficulty,
        )))
    if result.dao_side is not None:
        lines.append(_reference_line("dao", ts, dict(node_id=node_id, verdict=result.dao_side)))
    if result.disconnect_reason is not None:
        lines.append(_reference_line("disconnect", ts, dict(
            node_id=node_id,
            reason=int(result.disconnect_reason),
            reason_name=result.disconnect_reason.name.lower().replace("_", "-"),
            sent_by="remote",
        )))
    elif result.outcome is DialOutcome.FULL_HARVEST:
        lines.append(_reference_line("disconnect", ts, dict(
            node_id=node_id, reason=8, reason_name="client-quitting", sent_by="local"
        )))
    return "".join(line + "\n" for line in lines)


def _maybe(strategy):
    return st.none() | strategy


_DIAL_RESULTS = st.builds(
    DialResult,
    timestamp=st.floats(),
    node_id=st.binary(min_size=64, max_size=64),
    ip=_TEXT,
    tcp_port=st.integers(0, 65535),
    connection_type=st.sampled_from(["dynamic-dial", "static-dial", "incoming"]),
    outcome=st.sampled_from(list(DialOutcome)),
    latency=st.just(0.0) | st.floats(),
    duration=st.floats(min_value=0.0, max_value=60.0),
    client_id=_maybe(_TEXT),
    capabilities=_maybe(st.lists(st.tuples(_TEXT, st.integers(0, 2**70)))),
    listen_port=_maybe(st.integers(0, 65535)),
    network_id=_maybe(st.integers(0, 2**80)),
    genesis_hash=_maybe(st.binary(min_size=32, max_size=32)),
    total_difficulty=_maybe(st.integers(0, 2**256)),
    best_hash=_maybe(st.binary(min_size=32, max_size=32)),
    best_block=_maybe(st.integers(0, 2**64)),
    disconnect_reason=_maybe(st.sampled_from(list(DisconnectReason))),
    dao_side=_maybe(st.sampled_from(["supports", "opposes", "empty"])),
    head_height=_maybe(st.integers(0, 2**64)),
    failure_stage=_maybe(st.sampled_from(["connect", "rlpx", "hello", "status", "dao"])),
    failure_detail=_maybe(_TEXT),
)


class TestTelemetryFacade:
    def make(self):
        clock = FakeClock()
        stream = io.StringIO()
        telemetry = Telemetry(journal=EventJournal(stream), clock=clock)
        return telemetry, stream, clock

    def test_full_harvest_emits_whole_event_family(self):
        telemetry, stream, clock = self.make()
        span = telemetry.start_span("dial")
        stage = span.child("hello")
        clock.advance(0.25)
        stage.finish()
        result = full_result(duration=span.finish("full-harvest"))
        telemetry.record_dial(result, span=span)
        types = [e.type for e in read_events(stream.getvalue().splitlines())]
        assert types == ["dial", "hello", "status", "dao", "disconnect"]
        events = {e.type: e for e in read_events(stream.getvalue().splitlines())}
        assert events["dial"].fields["outcome"] == "full-harvest"
        assert events["dial"].fields["stages"] == {"hello": pytest.approx(0.25)}
        assert events["dial"].fields["node_id"] == "01" * 64
        # a full harvest ends with our own Client-quitting DISCONNECT
        assert events["disconnect"].fields["sent_by"] == "local"
        assert events["disconnect"].fields["reason"] == 8

    def test_funnel_counter_carries_outcome_and_stage(self):
        telemetry, stream, _ = self.make()
        telemetry.record_dial(
            full_result(
                outcome=DialOutcome.TIMEOUT,
                client_id=None,
                network_id=None,
                dao_side=None,
                failure_stage="connect",
                failure_detail="stalled",
            )
        )
        [event] = read_events(stream.getvalue().splitlines())
        assert (event.type, event.fields["outcome"]) == ("dial", "timeout")
        assert event.fields["failure_stage"] == "connect"
        assert event.fields["duration"] == 0.5
        funnel = render_top([("crawl.jsonl", [event])])
        assert "timeout  1      100.0%" in funnel

    def test_stage_histograms_fed_from_span_children(self):
        telemetry, stream, clock = self.make()
        span = telemetry.start_span("dial")
        child = span.child("connect")
        clock.advance(0.03)
        child.finish()
        span.finish()
        telemetry.record_dial(full_result(), span=span)
        events = read_events(stream.getvalue().splitlines())
        assert events[0].fields["stages"] == {"connect": pytest.approx(0.03)}
        [row] = [
            line.split()
            for line in render_top([("crawl.jsonl", events)]).splitlines()
            if line.startswith("connect")
        ]
        assert row == ["connect", "30.0ms", "30.0ms", "30.0ms"]

    def test_breaker_hook_records_transition(self):
        telemetry, stream, _ = self.make()
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown=10.0,
            clock=clock,
            on_transition=lambda old, new: telemetry.record_breaker(
                b"\x07" * 64, old, new
            ),
        )
        breaker.record_failure()  # CLOSED → OPEN
        clock.advance(11)
        assert breaker.allow()  # lazily observed OPEN → HALF_OPEN probe
        breaker.record_success()  # HALF_OPEN → CLOSED
        transitions = [
            (e.fields["old"], e.fields["new"])
            for e in read_events(stream.getvalue().splitlines())
        ]
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_supervisor_and_retry_records(self):
        telemetry, stream, _ = self.make()
        telemetry.record_loop_crash("discovery", "boom")
        telemetry.record_loop_restart("discovery")
        telemetry.record_loop_death("discovery", "boom")
        telemetry.record_retry(b"\x01" * 64, attempt=1, delay=0.2)
        events = read_events(stream.getvalue().splitlines())
        assert [e.type for e in events] == [
            "supervisor",
            "supervisor",
            "supervisor",
            "retry",
        ]
        assert [e.fields.get("event") for e in events[:3]] == [
            "crash",
            "restart",
            "death",
        ]

    @settings(max_examples=150, deadline=None)
    @given(result=_DIAL_RESULTS, with_span=st.booleans(), attempt=st.integers(1, 5))
    def test_record_dial_writes_the_reference_lines_in_one_write(
        self, result, with_span, attempt
    ):
        clock = FakeClock()
        stream = _CountingStream()
        telemetry = Telemetry(journal=EventJournal(stream), clock=clock)
        span = None
        if with_span:
            span = telemetry.start_span("dial")
            stage = span.child("connect")
            clock.advance(0.125)
            stage.finish()
            span.finish()
        telemetry.record_dial(result, span=span, attempt=attempt)
        stages = span.stage_durations() if span is not None else {}
        assert stream.getvalue() == _reference_dial_lines(
            result, clock.now, stages, attempt
        )
        assert stream.writes == 1
        assert telemetry.journal.events_written == stream.getvalue().count("\n")

    def test_null_telemetry_records_nothing(self):
        from repro.telemetry import NULL_TELEMETRY

        NULL_TELEMETRY.record_dial(full_result())
        NULL_TELEMETRY.record_retry(None, 1, 0.1)
        assert NULL_TELEMETRY.journal is None


# -- the health page ---------------------------------------------------------


def render_top_of(events):
    return render_top([("crawl.jsonl", events)])


class TestSummaries:
    def test_journal_summary_renders_funnel_and_latency(self):
        telemetry, stream, clock = (
            TestTelemetryFacade().make()
        )
        for _ in range(3):
            span = telemetry.start_span("dial")
            stage = span.child("hello")
            clock.advance(0.1)
            stage.finish()
            telemetry.record_dial(
                full_result(duration=span.finish("full-harvest")), span=span
            )
        telemetry.record_dial(
            full_result(
                outcome=DialOutcome.TIMEOUT,
                client_id=None,
                network_id=None,
                dao_side=None,
                failure_stage="connect",
            )
        )
        text = render_top_of(read_events(stream.getvalue().splitlines()))
        assert "full-harvest" in text and "3" in text
        assert "timeout" in text
        assert "75.0%" in text
        assert "hello" in text
        assert "100.0ms" in text

    def test_stage_latency_reports_p50_p95_max(self):
        telemetry, stream, clock = TestTelemetryFacade().make()
        # 0.1s .. 1.0s in ten dials: p50 straddles the middle, max = 1.0s
        for n in range(1, 11):
            span = telemetry.start_span("dial")
            stage = span.child("hello")
            clock.advance(n / 10)
            stage.finish()
            telemetry.record_dial(
                full_result(duration=span.finish("full-harvest")), span=span
            )
        text = render_top_of(read_events(stream.getvalue().splitlines()))
        header = next(
            line
            for line in text.splitlines()
            if line.startswith("stage") and "p50" in line
        )
        assert ["stage", "p50", "p95", "max"] == header.split()
        row = next(line for line in text.splitlines() if line.startswith("hello"))
        # exact-samples path: p50 indexes the upper-middle sample,
        # max is the worst dial
        assert "600.0ms" in row
        assert "1000.0ms" in row

    def test_journal_summary_is_deterministic(self):
        telemetry, stream, clock = TestTelemetryFacade().make()
        for n in range(1, 6):
            span = telemetry.start_span("dial")
            stage = span.child("connect")
            clock.advance(n / 100)
            stage.finish()
            telemetry.record_dial(
                full_result(duration=span.finish("full-harvest")), span=span
            )
        lines = stream.getvalue().splitlines()
        first = render_top_of(read_events(lines))
        second = render_top_of(read_events(lines))
        assert first == second

    def test_empty_inputs_render(self):
        text = render_top_of([])
        assert "peer breakers: no transitions" in text
        assert "subnet breakers: no transitions" in text
        assert "supervisor: 0 crashes, 0 restarts, 0 loop deaths" in text
