"""The node database: everything NodeFinder learned about each node ID.

Mirrors the paper's central database of scanned targets (§4-5): a fold
of the crawl's dial stream, whose accumulated HELLO/STATUS/DAO fields feed
every ecosystem analysis.  The crawl policy reads none of it — its own
state is :class:`~repro.nodefinder.core.CrawlerCore`.
Entries are keyed by node ID; a node seen at several IPs keeps them all.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Optional

from repro.nodefinder.records import DialOutcome, DialResult

#: every distinct connection-type set, held once: entries with the same
#: set share the one frozenset (three types make at most seven sets)
_CONNECTION_TYPES: dict[frozenset, frozenset] = {}


def _connection_types(types: Iterable[str]) -> frozenset:
    key = frozenset(types)
    return _CONNECTION_TYPES.setdefault(key, key)


@dataclass(slots=True)
class NodeEntry:
    """Accumulated knowledge about one node ID.

    Values are shared, never copied: ``connection_types`` is one of the
    interned frozensets, and ``client_id`` / ``capabilities`` are the
    objects the ``DialResult`` carried, which other entries may hold
    too — so a fold replaces them and never mutates them.
    """

    node_id: bytes
    ips: set = field(default_factory=set)
    tcp_port: int = 0
    #: first/last time the node actually responded (not mere dial attempts —
    #: §5.4's "active" span is about observed liveliness)
    first_seen: float = 0.0
    last_seen: float = 0.0
    #: most recent dial attempt of any outcome
    last_attempt: float = 0.0
    last_success: float = -1.0   # last successful TCP connection
    sessions: int = 0            # connections that yielded any message
    connection_types: frozenset = frozenset()
    client_id: Optional[str] = None
    capabilities: Optional[list] = None
    network_id: Optional[int] = None
    genesis_hash: Optional[bytes] = None
    best_hash: Optional[bytes] = None
    best_block: Optional[int] = None
    head_at_status: Optional[int] = None
    total_difficulty: Optional[int] = None
    dao_side: Optional[str] = None
    #: ever connected via our own outbound dial (reachability, Table 2)
    outbound_success: bool = False
    #: the first 32 latency samples, in dial order
    latencies: array = field(default_factory=partial(array, "d"))
    #: remote Disconnect reason label -> count (Table 1 input)
    disconnects: dict = field(default_factory=dict)

    @property
    def active_span(self) -> float:
        """Seconds between first and last sighting."""
        return max(0.0, self.last_seen - self.first_seen)

    @property
    def got_hello(self) -> bool:
        return self.client_id is not None

    @property
    def got_status(self) -> bool:
        return self.network_id is not None

    @property
    def is_mainnet(self) -> bool:
        """Verified non-Classic Mainnet: network 1, Mainnet genesis, pro-fork
        (or chain still below the fork)."""
        from repro.chain.genesis import MAINNET_GENESIS_HASH

        return (
            self.network_id == 1
            and self.genesis_hash == MAINNET_GENESIS_HASH
            and self.dao_side in ("supports", "empty", None)
        )

    @property
    def median_latency(self) -> Optional[float]:
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        return ordered[len(ordered) // 2]

    def primary_service(self) -> str:
        """The node's headline DEVp2p service (Table 3 categories)."""
        if not self.capabilities:
            return "unknown"
        names = [name for name, _ in self.capabilities]
        for preferred in ("eth", "bzz", "les", "pip", "shh"):
            if preferred in names:
                return preferred
        return names[0]


def _combined(mine: NodeEntry, other: NodeEntry) -> NodeEntry:
    """A new entry folding ``other`` into ``mine``; neither is written to."""
    hello = (
        other
        if other.got_hello and (not mine.got_hello or other.last_seen >= mine.last_seen)
        else mine
    )
    status = other if other.got_status else mine
    disconnects = dict(mine.disconnects)
    for label, count in other.disconnects.items():
        disconnects[label] = disconnects.get(label, 0) + count
    return NodeEntry(
        node_id=mine.node_id,
        ips=mine.ips | other.ips,
        tcp_port=mine.tcp_port,
        first_seen=min(mine.first_seen, other.first_seen),
        last_seen=max(mine.last_seen, other.last_seen),
        last_attempt=mine.last_attempt,
        last_success=max(mine.last_success, other.last_success),
        sessions=mine.sessions + other.sessions,
        connection_types=_connection_types(
            mine.connection_types | other.connection_types
        ),
        client_id=hello.client_id,
        capabilities=hello.capabilities,
        network_id=status.network_id,
        genesis_hash=status.genesis_hash,
        best_hash=status.best_hash,
        best_block=status.best_block,
        head_at_status=status.head_at_status,
        total_difficulty=status.total_difficulty,
        dao_side=mine.dao_side if other.dao_side is None else other.dao_side,
        outbound_success=mine.outbound_success or other.outbound_success,
        latencies=(mine.latencies + other.latencies)[:32],
        disconnects=disconnects,
    )


class NodeDB:
    """All node entries for one instance or a merged fleet."""

    def __init__(self) -> None:
        self._entries: dict[bytes, NodeEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: bytes) -> bool:
        return node_id in self._entries

    def __iter__(self) -> Iterator[NodeEntry]:
        return iter(self._entries.values())

    def get(self, node_id: bytes) -> Optional[NodeEntry]:
        return self._entries.get(node_id)

    def entry(self, node_id: bytes, now: float) -> NodeEntry:
        existing = self._entries.get(node_id)
        if existing is None:
            existing = NodeEntry(node_id=node_id, first_seen=now, last_seen=now)
            self._entries[node_id] = existing
        return existing

    def observe(self, result: DialResult) -> NodeEntry:
        """Fold one connection outcome into the database."""
        entry = self.entry(result.node_id, result.timestamp)
        entry.last_attempt = max(entry.last_attempt, result.timestamp)
        entry.ips.add(result.ip)
        entry.tcp_port = result.tcp_port
        if result.connection_type not in entry.connection_types:
            entry.connection_types = _connection_types(
                entry.connection_types | {result.connection_type}
            )
        # a refused connection is not a live observation: nothing answered
        if result.outcome.connected:
            entry.last_success = max(entry.last_success, result.timestamp)
            entry.last_seen = max(entry.last_seen, result.timestamp)
            if result.connection_type in ("dynamic-dial", "static-dial"):
                entry.outbound_success = True
        if result.outcome in (
            DialOutcome.FULL_HARVEST,
            DialOutcome.HELLO_NO_STATUS,
            DialOutcome.HELLO_THEN_DISCONNECT,
        ):
            entry.sessions += 1
        if result.got_hello:
            entry.client_id = result.client_id
            entry.capabilities = result.capabilities
        if result.got_status:
            entry.network_id = result.network_id
            entry.genesis_hash = result.genesis_hash
            entry.best_hash = result.best_hash
            entry.best_block = result.best_block
            entry.head_at_status = result.head_height
            entry.total_difficulty = result.total_difficulty
        if result.dao_side is not None:
            entry.dao_side = result.dao_side
        if result.disconnect_reason is not None:
            label = result.disconnect_reason.label
            entry.disconnects[label] = entry.disconnects.get(label, 0) + 1
        if result.latency and len(entry.latencies) < 32:
            entry.latencies.append(result.latency)
        return entry

    # -- queries -----------------------------------------------------------------

    def nodes_with_hello(self) -> list[NodeEntry]:
        return [entry for entry in self if entry.got_hello]

    def nodes_with_status(self) -> list[NodeEntry]:
        return [entry for entry in self if entry.got_status]

    def mainnet_nodes(self) -> list[NodeEntry]:
        return [entry for entry in self if entry.got_status and entry.is_mainnet]

    def merge(self, other: "NodeDB") -> None:
        """Fold another instance's database into this one (fleet view)."""
        for entry in other:
            self.merge_entry(entry)

    @classmethod
    def from_entries(cls, entries: Iterable[NodeEntry]) -> "NodeDB":
        """A new database folded from entries (filtered copies, rebuilds).

        Keeps the construction inside the owning module: callers that
        derive a new database (sanitisation, subsetting) fold through
        this instead of mutating a fresh ``NodeDB`` themselves — the
        OWNERSHIP invariant allows mutation only here and in the writer.
        """
        db = cls()
        for entry in entries:
            db.merge_entry(entry)
        return db

    @classmethod
    def merged(cls, databases: Iterable["NodeDB"]) -> "NodeDB":
        """One database folding every input database (the fleet view)."""
        merged = cls()
        for db in databases:
            merged.merge(db)
        return merged

    def merge_entry(self, entry: NodeEntry) -> None:
        """Fold a single entry into this database.

        The first entry for an ID is held as it is, not copied, so a
        merge of one database shares its entries (a merged view is read,
        not observed into).  A second entry for the ID makes a new one: a
        merge never writes to its inputs.
        """
        mine = self._entries.get(entry.node_id)
        self._entries[entry.node_id] = (
            entry if mine is None else _combined(mine, entry)
        )

    # -- persistence ---------------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write entries as JSON lines; returns the count written.

        The dump is full-fidelity: :meth:`load_jsonl` reconstructs every
        analysis input (including ``head_at_status``, latencies and
        disconnect tallies), so the database path and the journal-replay path
        of ``nodefinder analyze`` render identical reports.
        """
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self:
                record = {
                    "node_id": entry.node_id.hex(),
                    "ips": sorted(entry.ips),
                    "tcp_port": entry.tcp_port,
                    "first_seen": entry.first_seen,
                    "last_seen": entry.last_seen,
                    "last_attempt": entry.last_attempt,
                    "last_success": entry.last_success,
                    "sessions": entry.sessions,
                    "connection_types": sorted(entry.connection_types),
                    "client_id": entry.client_id,
                    "capabilities": entry.capabilities,
                    "network_id": entry.network_id,
                    "genesis_hash": entry.genesis_hash.hex()
                    if entry.genesis_hash
                    else None,
                    "best_hash": entry.best_hash.hex() if entry.best_hash else None,
                    "best_block": entry.best_block,
                    "head_at_status": entry.head_at_status,
                    "total_difficulty": entry.total_difficulty,
                    "dao_side": entry.dao_side,
                    "outbound_success": entry.outbound_success,
                    "latencies": list(entry.latencies),
                    "disconnects": {
                        label: entry.disconnects[label]
                        for label in sorted(entry.disconnects)
                    },
                }
                handle.write(json.dumps(record) + "\n")
                count += 1
        return count

    @classmethod
    def load_jsonl(cls, path: str) -> "NodeDB":
        db = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                entry = NodeEntry(
                    node_id=bytes.fromhex(record["node_id"]),
                    ips=set(record["ips"]),
                    tcp_port=record["tcp_port"],
                    first_seen=record["first_seen"],
                    last_seen=record["last_seen"],
                    last_attempt=record.get("last_attempt", 0.0),
                    last_success=record["last_success"],
                    sessions=record["sessions"],
                    connection_types=_connection_types(
                        record.get("connection_types", ())
                    ),
                    client_id=record["client_id"],
                    capabilities=[tuple(cap) for cap in record["capabilities"]]
                    if record["capabilities"]
                    else None,
                    network_id=record["network_id"],
                    genesis_hash=bytes.fromhex(record["genesis_hash"])
                    if record["genesis_hash"]
                    else None,
                    best_hash=bytes.fromhex(record["best_hash"])
                    if record.get("best_hash")
                    else None,
                    best_block=record["best_block"],
                    head_at_status=record.get("head_at_status"),
                    total_difficulty=record.get("total_difficulty"),
                    dao_side=record["dao_side"],
                    outbound_success=record.get("outbound_success", False),
                    latencies=array("d", record.get("latencies", ())),
                    disconnects=dict(record.get("disconnects", {})),
                )
                db._entries[entry.node_id] = entry
        return db
