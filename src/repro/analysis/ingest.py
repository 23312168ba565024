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
also derives per-peer :class:`PeerTimeline` views (first/last sighting,
dial-outcome tallies, inter-sighting freshness gaps) that only the
longitudinal journal can provide.

Semantics
---------
A ``dial`` record opens one observation for its ``node_id``; the
``hello`` / ``status`` / ``dao`` / ``disconnect`` records that follow
(the journal writer emits them contiguously per attempt) attach to it.
The completed observation is folded through ``NodeDB.observe`` — the
same code path a live crawl uses — so a replayed view matches the live
database entry for entry.

Replay is *total*: malformed streams degrade instead of raising.
Out-of-order companion records attach to the peer's open observation or,
lacking one, write their facts onto the entry directly; duplicated
records re-apply idempotent facts; records that cannot be interpreted at
all (missing ``node_id``, unknown outcome) are counted in
``ReplayedCrawl.skipped`` and dropped.  Torn final lines are handled one
layer down by :func:`~repro.telemetry.journal.read_events`.

Replay folds **every** dial attempt on record.  A live crawl under a
``RetryPolicy`` journals each attempt but folds only the final
``DialResult`` into its database, so a replayed view of such a run can
carry strictly more observations — the journal, like the paper's log, is
the more complete artifact.

This module performs no I/O of its own and never reads a clock (the
INGEST-PURE lint family enforces both): timelines come entirely from the
event stream, so replaying a journal is reproducible byte-for-byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, TextIO, Union

from repro.devp2p.messages import DisconnectReason
from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import CrawlStats
from repro.nodefinder.shard import NodeDBWriter
from repro.simnet.clock import SECONDS_PER_DAY
from repro.simnet.node import DialOutcome, DialResult
from repro.telemetry.journal import Event, read_events


@dataclass
class PeerTimeline:
    """Longitudinal view of one peer, derived purely from its events."""

    node_id: bytes
    #: first/last journal record mentioning the peer (any type)
    first_event: float = 0.0
    last_event: float = 0.0
    #: first/last *live* observation (a dial that reached a listener)
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None
    #: dial tallies by outcome value, e.g. ``{"full-harvest": 3}``
    outcomes: Counter = field(default_factory=Counter)
    dials: int = 0
    retries: int = 0
    bonds_ok: int = 0
    bonds_failed: int = 0
    breaker_opens: int = 0
    #: seconds between consecutive live sightings — the freshness
    #: intervals behind the §7.3 churn/staleness readings
    sighting_gaps: List[float] = field(default_factory=list)

    @property
    def sightings(self) -> int:
        return len(self.sighting_gaps) + (1 if self.first_seen is not None else 0)

    @property
    def longest_gap(self) -> float:
        return max(self.sighting_gaps, default=0.0)

    def _touch(self, ts: float) -> None:
        self.first_event = min(self.first_event, ts)
        self.last_event = max(self.last_event, ts)

    def _sight(self, ts: float) -> None:
        if self.last_seen is not None:
            self.sighting_gaps.append(max(0.0, ts - self.last_seen))
            self.first_seen = min(self.first_seen, ts)
            self.last_seen = max(self.last_seen, ts)
        else:
            self.first_seen = self.last_seen = ts


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
    #: table-admission refusals by reason / by refused /24 (v3)
    admission_rejections: Counter = field(default_factory=Counter)
    rejected_subnets: Counter = field(default_factory=Counter)
    #: subnet-scope breaker OPEN transitions by prefix (v3)
    subnet_breaker_trips: Counter = field(default_factory=Counter)
    #: shard handoffs found in sealed segments (v4 ``reshard`` records),
    #: deduplicated by generation and sorted by (ts, generation); each is
    #: ``{"action", "step", "generation", "parent", "children", "ts"}``
    reshards: List[dict] = field(default_factory=list)
    reshard_generations: set = field(default_factory=set)

    def timeline(self, node_id: bytes) -> Optional[PeerTimeline]:
        return self.timelines.get(node_id)

    @property
    def total_days(self) -> float:
        """Span of the replayed crawl in days (for churn analyses)."""
        stamps = [t.last_event for t in self.timelines.values()]
        return (max(stamps) / SECONDS_PER_DAY) if stamps else 0.0


#: companion records that attach to a peer's open dial observation
_COMPANIONS = frozenset({"hello", "status", "dao", "disconnect"})


class _PendingDial:
    """One dial observation being assembled from its records."""

    __slots__ = ("base", "hello", "status", "dao_side", "disconnect_reason")

    def __init__(self, base: dict) -> None:
        self.base = base
        self.hello: dict = {}
        self.status: dict = {}
        self.dao_side: Optional[str] = None
        self.disconnect_reason: Optional[DisconnectReason] = None

    def result(self) -> DialResult:
        return DialResult(
            dao_side=self.dao_side,
            disconnect_reason=self.disconnect_reason,
            **self.base,
            **self.hello,
            **self.status,
        )


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


def _capabilities(raw) -> Optional[list]:
    if not isinstance(raw, list):
        return None
    caps = []
    for item in raw:
        if isinstance(item, (list, tuple)) and len(item) == 2:
            caps.append((item[0], item[1]))
    return caps


def replay(events: Iterable[Event]) -> ReplayedCrawl:
    """Fold a journal event stream back into crawl products.

    Never raises on stream *content*: uninterpretable records are noted
    in ``skipped`` and dropped, so shuffled, duplicated, or truncated
    journals still yield the best view their events support.
    """
    out = ReplayedCrawl()
    # replayed dials fold through the same single-writer path a live crawl
    # uses (direct mode), so the OWNERSHIP invariant holds here too
    writer = NodeDBWriter(out.db, stats=out.stats)
    pending: Dict[bytes, _PendingDial] = {}

    def flush(node_id: bytes) -> None:
        open_dial = pending.pop(node_id, None)
        if open_dial is None:
            return
        writer.submit(open_dial.result())
        out.dials_replayed += 1

    for lineno, event in enumerate(events, start=1):
        out.events_replayed += 1
        out.event_counts[event.type] += 1
        fields = event.fields
        # crawl-scope records (v3): they carry node_ids that are *not*
        # peers (the crawler's own identity, refused candidates) or no
        # node_id at all — handle them before the timeline bookkeeping
        if event.type == "crawler":
            crawler_id = _node_id(event)
            if crawler_id is not None:
                out.crawler_ids.add(crawler_id)
                name = fields.get("name")
                if isinstance(name, str):
                    out.crawler_names[crawler_id] = name
            continue
        if event.type == "table_admission":
            out.admission_rejections[str(fields.get("reason"))] += 1
            subnet = fields.get("subnet")
            if isinstance(subnet, str):
                out.rejected_subnets[subnet] += 1
            continue
        if event.type == "breaker" and fields.get("scope") == "subnet":
            if fields.get("new") == "open":
                out.subnet_breaker_trips[str(fields.get("subnet"))] += 1
            continue
        if event.type == "reshard":
            # (v4) a sealed segment's handoff marker.  A merge seals two
            # parent segments with the same generation's record — dedupe
            # on generation so the plan history reads one row per op.
            generation = fields.get("generation")
            if generation is not None and generation not in out.reshard_generations:
                out.reshard_generations.add(generation)
                out.reshards.append(
                    {
                        "action": fields.get("action"),
                        "step": fields.get("step"),
                        "generation": generation,
                        "parent": fields.get("parent"),
                        "children": fields.get("children"),
                        "ts": event.ts,
                    }
                )
                out.reshards.sort(
                    key=lambda op: (op["ts"], op["generation"])
                )
            continue
        node_id = _node_id(event)
        if node_id is not None:
            timeline = out.timelines.get(node_id)
            if timeline is None:
                timeline = out.timelines[node_id] = PeerTimeline(
                    node_id=node_id, first_event=event.ts, last_event=event.ts
                )
            else:
                timeline._touch(event.ts)
        elif event.type in _COMPANIONS or event.type == "dial":
            out.skipped.append(
                f"event {lineno}: {event.type} without a usable node_id"
            )
            continue
        else:
            continue  # supervisor / datagram_fault / unknown broadcast types

        if event.type == "dial":
            try:
                outcome = DialOutcome(fields.get("outcome"))
            except ValueError:
                out.skipped.append(
                    f"event {lineno}: dial with unknown outcome "
                    f"{fields.get('outcome')!r}"
                )
                continue
            flush(node_id)
            started = fields.get("started", event.ts)
            pending[node_id] = _PendingDial(
                dict(
                    timestamp=float(started),
                    node_id=node_id,
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
                    attempts=int(fields.get("attempt", 1)),
                )
            )
            timeline.dials += 1
            timeline.outcomes[outcome.value] += 1
            if outcome.connected:
                timeline._sight(float(started))
        elif event.type == "hello":
            hello = dict(
                client_id=fields.get("client_id"),
                capabilities=_capabilities(fields.get("capabilities")),
                listen_port=fields.get("listen_port"),
            )
            open_dial = pending.get(node_id)
            if open_dial is not None:
                open_dial.hello = hello
            else:  # orphan (shuffled/truncated stream): write facts directly
                entry = out.db.entry(node_id, event.ts)
                if hello["client_id"] is not None:
                    entry.client_id = hello["client_id"]
                    entry.capabilities = hello["capabilities"]
        elif event.type == "status":
            status = dict(
                network_id=fields.get("network_id"),
                genesis_hash=_hex_field(fields, "genesis_hash"),
                best_hash=_hex_field(fields, "best_hash"),
                best_block=fields.get("best_block"),
                head_height=fields.get("head_height"),
                total_difficulty=fields.get("total_difficulty"),
            )
            open_dial = pending.get(node_id)
            if open_dial is not None:
                open_dial.status = status
            elif status["network_id"] is not None:
                entry = out.db.entry(node_id, event.ts)
                entry.network_id = status["network_id"]
                entry.genesis_hash = status["genesis_hash"]
                entry.best_hash = status["best_hash"]
                entry.best_block = status["best_block"]
                entry.head_at_status = status["head_height"]
                entry.total_difficulty = status["total_difficulty"]
        elif event.type == "dao":
            verdict = fields.get("verdict")
            open_dial = pending.get(node_id)
            if open_dial is not None:
                open_dial.dao_side = verdict
            elif verdict is not None:
                out.db.entry(node_id, event.ts).dao_side = verdict
        elif event.type == "disconnect":
            if fields.get("sent_by") == "remote":
                try:
                    reason = DisconnectReason(fields.get("reason"))
                except ValueError:
                    reason = None
                open_dial = pending.get(node_id)
                if open_dial is not None:
                    open_dial.disconnect_reason = reason
        elif event.type == "retry":
            timeline.retries += 1
        elif event.type == "bond":
            if fields.get("ok"):
                timeline.bonds_ok += 1
            else:
                timeline.bonds_failed += 1
        elif event.type == "breaker":
            if fields.get("new") == "open":
                timeline.breaker_opens += 1
        # any other per-node event type: timeline already touched above

    for node_id in list(pending):
        flush(node_id)
    return out


def replay_journal(
    source: Union[str, Path, TextIO, Iterable[str]],
    tolerate_torn_tail: bool = True,
) -> ReplayedCrawl:
    """Read one journal (path, stream, or lines) and replay it."""
    return replay(read_events(source, tolerate_torn_tail=tolerate_torn_tail))


def replay_journals(
    sources: Iterable[Union[str, Path, TextIO, Iterable[str]]],
    tolerate_torn_tail: bool = True,
) -> ReplayedCrawl:
    """Replay several journals (per-instance or per-shard files) as one crawl.

    Events are merged in timestamp order — the journals share one
    injected clock, so a stable sort reconstructs the crawl's interleaved
    timeline while keeping each dial's companion records (written at the
    same instant) contiguous.  Sharded crawls journal one file per shard
    (``<name>-shard<k>.g0.jsonl``); because the keyspace partition gives
    every node exactly one owning shard, no two shard files carry the
    same node at the same timestamp, and the merged replay reconstructs
    the same NodeDB the live sharded crawl folded through its writer
    queue (the shard-conformance suite pins this).

    Elastic crawls add later-generation segments
    (``<name>-shard<k>.g<gen>.jsonl``): a reshard seals the parent
    segment with a ``reshard`` record and the children continue in fresh
    files.  The same timestamp merge reassembles them — a node's dials
    stay in order because its owning range hands off at a single instant,
    so the sealed parent's records all precede its children's.  The
    reshard-conformance suite pins entry-for-entry reconstruction across
    generations.
    """
    merged: List[Event] = []
    for source in sources:
        merged.extend(read_events(source, tolerate_torn_tail=tolerate_torn_tail))
    merged.sort(key=lambda event: event.ts)
    return replay(merged)


def load_nodedb(
    source: Union[str, Path, TextIO, Iterable[str]],
) -> NodeDB:
    """Shortcut: journal → the NodeDB view the analyses consume."""
    return replay_journal(source).db
