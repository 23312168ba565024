"""Journal ingestion: fold a measurement journal back into crawl products.

The paper's tables and figures are all derived from NodeFinder's
connection log; our equivalent is the versioned JSONL
:class:`~repro.telemetry.journal.EventJournal` a crawl writes.  This
module closes the loop: :func:`replay` folds the event stream back into
a :class:`~repro.nodefinder.database.NodeDB` plus
:class:`~repro.nodefinder.records.CrawlStats` — the exact structures a
live crawl produces — so every analysis in :mod:`repro.analysis`
(``ecosystem``, ``clients``, ``freshness``, ``churn``, ``geography``)
runs unchanged from either a live database or a replayed journal.  It
also derives a per-peer :class:`PeerTimeline` for every dialed peer (its
dial count, its latest sighting and the inter-sighting freshness gaps)
that only the longitudinal journal can provide; whatever else a peer's
history holds is in its ``NodeEntry``.

Semantics
---------
A ``dial`` record opens one observation for its ``node_id``; the
``hello`` / ``status`` / ``dao`` / ``disconnect`` records of the same
node that follow it attach to it (the journal writer emits each dial's
records in one write, at one ``ts``, and the merge of several journals
keeps them contiguous).  The first record that is not such a companion
closes the observation, which is folded through ``NodeDB.observe`` —
the same code path a live crawl uses — so a replayed view matches the
live database entry for entry, and the fold holds one open observation,
never one per peer.

Replay is *total*: malformed streams degrade instead of raising.  A
companion record outside its dial's group (shuffled or truncated
streams) writes its facts onto the entry directly; duplicated records
re-apply idempotent facts; records that cannot be interpreted at all
(missing ``node_id``, unknown outcome) are counted in
``ReplayedCrawl.skipped`` and dropped.  Torn final lines are handled one
layer down by :func:`~repro.telemetry.journal.iter_events`.

Replay folds **every** dial on record.  A crawl journals each dial once
and folds that same ``DialResult`` into its database, so a crawl's
journal replays into exactly its own NodeDB.  Journals written while live
dials were still retried in place carry one ``dial`` record per attempt
plus a ``retry`` record per backoff wait; replay folds each attempt as a
dial of its own and only counts the waits in ``event_counts``, as it
does ``bond`` records and a peer's ``breaker`` transitions.

This module performs no I/O of its own and never reads a clock (the
INGEST-PURE lint family enforces both): timelines come entirely from the
event stream, so replaying a journal is reproducible byte-for-byte.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from dataclasses import dataclass, field
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.devp2p.messages import DisconnectReason
from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import CrawlStats, DialOutcome, DialResult
from repro.nodefinder.shard import NodeDBWriter
from repro.telemetry.journal import Event, iter_events


@dataclass(slots=True)
class PeerTimeline:
    """Longitudinal view of one dialed peer, derived purely from its dials."""

    #: the ``DialResult`` of every dial of this peer carries these bytes
    node_id: bytes
    dials: int = 0
    #: the latest live observation (a dial that reached a listener)
    last_seen: Optional[float] = None
    #: seconds between consecutive live sightings — the freshness
    #: intervals behind the §7.3 churn/staleness readings; ``None`` until
    #: the second sighting
    sighting_gaps: Optional[array] = None

    def _sight(self, ts: float) -> None:
        last = self.last_seen
        if last is None:
            self.last_seen = ts
            return
        gap = max(0.0, ts - last)
        if self.sighting_gaps is None:
            self.sighting_gaps = array("d", (gap,))
        else:
            self.sighting_gaps.append(gap)
        self.last_seen = max(last, ts)


@dataclass
class ReplayedCrawl:
    """Everything :func:`replay` reconstructs from one journal."""

    db: NodeDB = field(default_factory=NodeDB)
    stats: CrawlStats = field(default_factory=CrawlStats)
    timelines: Dict[bytes, PeerTimeline] = field(default_factory=dict)
    event_counts: Counter = field(default_factory=Counter)
    events_replayed: int = 0
    dials_replayed: int = 0
    #: human-readable notes for records replay had to drop
    skipped: List[str] = field(default_factory=list)
    #: identities the crawl itself presented (``crawler`` events, v3) —
    #: eclipse detection anchors bucket skew on these
    crawler_ids: set = field(default_factory=set)
    crawler_names: Dict[bytes, str] = field(default_factory=dict)
    #: ``ts`` of the earliest ``crawler`` record, 0.0 without one: where
    #: the crawl window starts (a live clock does not start at 0)
    started: float = 0.0
    #: table-admission refusals by reason / by refused /24 (v3)
    admission_rejections: Counter = field(default_factory=Counter)
    rejected_subnets: Counter = field(default_factory=Counter)
    #: subnet-scope breaker OPEN transitions by prefix (v3)
    subnet_breaker_trips: Counter = field(default_factory=Counter)


#: companion records that attach to the open dial observation of their node
_COMPANIONS = frozenset({"hello", "status", "dao", "disconnect"})

#: the records replay folds into a peer's entry; every other type is
#: counted and, if crawl-scope (``crawler``, ``table_admission``, a
#: subnet ``breaker``), read into the crawl's own tallies
_PEER_RECORDS = _COMPANIONS | {"dial"}

_OUTCOMES = {outcome.value: outcome for outcome in DialOutcome}


def _finite(value) -> float:
    number = float(value)
    if not isfinite(number):  # json reads NaN / Infinity; a day index cannot
        raise ValueError(f"{number} is not a timestamp")
    return number


#: the ``dial`` fields replay converts, each with the conversion that
#: makes it the type a live ``DialResult`` carries (``attempt``, which
#: every dial writes as 1, is only checked)
_DIAL_NUMBERS = (
    ("started", _finite),
    ("tcp_port", int),
    ("latency", float),
    ("duration", float),
    ("attempt", int),
)
_NOT_A_NUMBER = (TypeError, ValueError, OverflowError)


def _converts(convert, value) -> bool:
    try:
        convert(value)
    except _NOT_A_NUMBER:
        return False
    return True


def _node_id(event: Event) -> Optional[bytes]:
    raw = event.fields.get("node_id")
    if not isinstance(raw, str):
        return None
    try:
        return bytes.fromhex(raw)
    except ValueError:
        return None


def _hex_field(fields: dict, key: str) -> Optional[bytes]:
    raw = fields.get(key)
    if not isinstance(raw, str):
        return None
    try:
        return bytes.fromhex(raw)
    except ValueError:
        return None


def _capabilities(raw, interned: Dict[tuple, list]) -> Optional[list]:
    """The ``(name, version)`` pairs of a HELLO; a well-typed list is the
    one ``interned`` already holds for the same pairs, if any."""
    if not isinstance(raw, list):
        return None
    caps = []
    for item in raw:
        if isinstance(item, (list, tuple)) and len(item) == 2:
            caps.append((item[0], item[1]))
    # exact types only: ("eth", 1) must not become another peer's ("eth", True)
    if all(type(name) is str and type(version) is int for name, version in caps):
        return interned.setdefault(tuple(caps), caps)
    return caps


def replay(events: Iterable[Event]) -> ReplayedCrawl:
    """Fold a journal event stream back into crawl products.

    Never raises on stream *content*: uninterpretable records are noted
    in ``skipped`` and dropped, so shuffled, duplicated, or truncated
    journals still yield the best view their events support.  ``events``
    is consumed once, one event at a time — what the fold holds is the
    crawl products and the one observation still open.
    """
    out = ReplayedCrawl()
    # replayed dials fold through the same single-writer path a live crawl
    # uses (direct mode), so the OWNERSHIP invariant holds here too
    writer = NodeDBWriter(out.db, stats=out.stats)
    #: the observation the last ``dial`` opened; its companions fill it
    #: in, and any other record closes it
    open_dial: Optional[DialResult] = None
    started: Optional[float] = None
    timelines = out.timelines
    skipped = out.skipped
    #: one object per distinct client string and capability list, so
    #: peers announcing the same client share it, as on the live path
    clients: Dict[str, str] = {}
    capability_lists: Dict[tuple, list] = {}
    counts: Dict[str, int] = {}
    lineno = 0

    for lineno, event in enumerate(events, start=1):
        kind = event.type
        counts[kind] = counts.get(kind, 0) + 1
        fields = event.fields
        ts = event.ts
        node_id = _node_id(event) if kind in _PEER_RECORDS else None
        if open_dial is not None and (
            kind not in _COMPANIONS or node_id != open_dial.node_id
        ):
            writer.submit(open_dial)
            open_dial = None
        if kind not in _PEER_RECORDS:
            # crawl-scope records (v3) carry node_ids that are *not* peers
            # (the crawler's own identity, refused candidates) or none
            if kind == "crawler":
                if started is None or ts < started:
                    started = ts
                crawler_id = _node_id(event)
                if crawler_id is not None:
                    out.crawler_ids.add(crawler_id)
                    name = fields.get("name")
                    if isinstance(name, str):
                        out.crawler_names[crawler_id] = name
            elif kind == "table_admission":
                out.admission_rejections[str(fields.get("reason"))] += 1
                subnet = fields.get("subnet")
                if isinstance(subnet, str):
                    out.rejected_subnets[subnet] += 1
            elif (
                kind == "breaker"  # a breaker over a /24 tripping
                and fields.get("scope") == "subnet"
                and fields.get("new") == "open"
            ):
                out.subnet_breaker_trips[str(fields.get("subnet"))] += 1
            # retry / bond / peer breaker / reshard / supervisor /
            # datagram_fault / unknown types: counted, nothing to fold
            continue
        if node_id is None:
            skipped.append(f"event {lineno}: {kind} without a usable node_id")
            continue

        if kind == "dial":
            value = fields.get("outcome")
            outcome = _OUTCOMES.get(value) if isinstance(value, str) else None
            if outcome is None:
                skipped.append(
                    f"event {lineno}: dial with unknown outcome {value!r}"
                )
                continue
            timeline = timelines.get(node_id)
            try:
                result = DialResult(
                    timestamp=_finite(fields.get("started", ts)),
                    # one bytes object per peer: the timeline's, if any
                    node_id=node_id if timeline is None else timeline.node_id,
                    ip=str(fields.get("ip", "")),
                    tcp_port=int(fields.get("tcp_port", 0)),
                    connection_type=str(
                        fields.get("connection_type", "dynamic-dial")
                    ),
                    outcome=outcome,
                    latency=float(fields.get("latency", 0.0)),
                    duration=float(fields.get("duration", 0.0)),
                    failure_stage=fields.get("failure_stage"),
                    failure_detail=fields.get("failure_detail"),
                )
                int(fields.get("attempt", 1))  # checked only: a dial is one attempt
            except _NOT_A_NUMBER:
                unusable = next(
                    key
                    for key, convert in _DIAL_NUMBERS
                    if not _converts(convert, fields.get(key, 0))
                )
                skipped.append(f"event {lineno}: dial with unusable {unusable}")
                continue
            if timeline is None:
                timeline = timelines[node_id] = PeerTimeline(node_id)
            timeline.dials += 1
            if outcome.connected:
                timeline._sight(result.timestamp)
            open_dial = result
        elif kind == "hello":
            client_id = fields.get("client_id")
            if isinstance(client_id, str):
                client_id = clients.setdefault(client_id, client_id)
            capabilities = _capabilities(
                fields.get("capabilities"), capability_lists
            )
            if open_dial is not None:
                open_dial.client_id = client_id
                open_dial.capabilities = capabilities
                open_dial.listen_port = fields.get("listen_port")
            else:  # orphan (shuffled/truncated stream): write facts directly
                entry = out.db.entry(node_id, ts)
                if client_id is not None:
                    entry.client_id = client_id
                    entry.capabilities = capabilities
        elif kind == "status":
            network_id = fields.get("network_id")
            if open_dial is not None:
                open_dial.network_id = network_id
                open_dial.genesis_hash = _hex_field(fields, "genesis_hash")
                open_dial.best_hash = _hex_field(fields, "best_hash")
                open_dial.best_block = fields.get("best_block")
                open_dial.head_height = fields.get("head_height")
                open_dial.total_difficulty = fields.get("total_difficulty")
            elif network_id is not None:
                entry = out.db.entry(node_id, ts)
                entry.network_id = network_id
                entry.genesis_hash = _hex_field(fields, "genesis_hash")
                entry.best_hash = _hex_field(fields, "best_hash")
                entry.best_block = fields.get("best_block")
                entry.head_at_status = fields.get("head_height")
                entry.total_difficulty = fields.get("total_difficulty")
        elif kind == "dao":
            verdict = fields.get("verdict")
            if open_dial is not None:
                open_dial.dao_side = verdict
            elif verdict is not None:
                out.db.entry(node_id, ts).dao_side = verdict
        elif open_dial is not None and fields.get("sent_by") == "remote":
            try:  # a disconnect the peer sent
                reason = DisconnectReason(fields.get("reason"))
            except ValueError:
                reason = None
            open_dial.disconnect_reason = reason

    if open_dial is not None:
        writer.submit(open_dial)
    out.started = 0.0 if started is None else started
    out.events_replayed = lineno
    out.dials_replayed = writer.folds
    out.event_counts.update(counts)
    return out


Source = Union[str, Path, TextIO, Iterable[str]]

_TS = attrgetter("ts")


def replay_journal(source: Source) -> ReplayedCrawl:
    """Read one journal (path, stream, or lines) and replay it, in file
    order; a torn last line (a crash mid-write) is dropped."""
    return replay(iter_events(source))


class _StepsBackwards(Exception):
    """A source's ``ts`` decreased: a merge of it would not be the sort."""


def _ascending(events: Iterable[Event]) -> Iterator[Event]:
    latest = float("-inf")
    for event in events:
        if event.ts < latest:
            raise _StepsBackwards
        latest = event.ts
        yield event


def replay_journals(sources: Iterable[Source]) -> ReplayedCrawl:
    """Replay several journals (per-instance or per-shard files) as one crawl.

    Events are folded in timestamp order, ties going to the earlier
    source and, within a source, to the earlier line — the journals
    share one injected clock, so this reconstructs the crawl's
    interleaved timeline while keeping each dial's companion records
    (written at the same instant) contiguous.  Sharded crawls journal one
    file per shard (``<name>-shard<k>.jsonl``); because the keyspace
    partition gives every node exactly one owning shard, no two shard
    files carry the same node at the same timestamp, and the merged
    replay reconstructs the same NodeDB the sharded crawl folded
    through its ``NodeDBWriter`` (the shard-conformance suite pins this).
    Journals from older crawls whose plan changed mid-crawl, with
    generation-suffixed files (``<name>-shard<k>.g<gen>.jsonl``), merge
    the same way.

    **Memory.**  A journal a crawl wrote is non-decreasing in ``ts``, and
    while every source is, the sources are streamed through a k-way merge
    straight into the fold: one decoded event per source is held, so
    memory is O(peers), not O(events).  A source that steps backwards
    (two runs appended into one file, a hand-shuffled file) makes the
    merge differ from the sort, so on the first backwards step the
    partial fold is discarded, every source is read again in full, and
    the union is stable-sorted and folded — the same result, in
    O(events) memory.  Sources that are not paths are held as their
    *lines* so that they can be read twice.

    A :class:`~repro.telemetry.journal.JournalError` names the file when
    the source is a path.  When *several* sources are corrupt, which one
    is reported first depends on where the merge is in time, not on
    argument order.
    """
    held = [
        source if isinstance(source, (str, Path, list, tuple)) else list(source)
        for source in sources
    ]

    def streams() -> List[Iterator[Event]]:
        return [iter_events(source) for source in held]

    try:
        return replay(heapq.merge(*map(_ascending, streams()), key=_TS))
    except _StepsBackwards:
        merged: List[Event] = []
        for stream in streams():
            merged.extend(stream)
        merged.sort(key=_TS)
        return replay(merged)

