"""The measurement record of §4 and the crawl bookkeeping that folds it.

NodeFinder's raw log is one line per connection event — a
:class:`DialResult`, whichever driver produced it (``world.dial`` in the
simnet, :func:`repro.nodefinder.wire.harvest` on real sockets, a journal
replay).  At simulation scale we aggregate as we go (the full
line-by-line log is optional) into the exact series the paper's
internal-validation figures plot:

* Figure 5 — discovery attempts and dynamic-dial attempts per day;
* Figure 6 — unique nodes dynamic-dialed per day;
* Figure 7 — unique nodes responding to dynamic dials per day;
* Figure 8 — dials reaching a chosen bootstrap node, by connection type.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.devp2p.messages import DisconnectReason


class DialOutcome(enum.Enum):
    """How a connection attempt ended."""

    TIMEOUT = "timeout"                      # offline / unreachable
    CONNECTION_REFUSED = "refused"
    RLPX_FAILED = "rlpx-failed"              # crypto handshake failure
    DISCONNECT_BEFORE_HELLO = "disconnect-before-hello"
    HELLO_NO_STATUS = "hello-no-status"      # HELLO ok, STATUS never came
    HELLO_THEN_DISCONNECT = "hello-then-disconnect"
    FULL_HARVEST = "full-harvest"            # HELLO + STATUS (+ DAO check)

    @property
    def connected(self) -> bool:
        """A TCP connection was established (the peer is alive at all).

        TIMEOUT and CONNECTION_REFUSED mean nothing ever answered; every
        other outcome is evidence of a listening process.
        """
        return self not in (DialOutcome.TIMEOUT, DialOutcome.CONNECTION_REFUSED)

    @property
    def completed(self) -> bool:
        """The RLPx session came up and the peer spoke DEVp2p.

        This is §4's "completed dial" — the bar for joining StaticNodes.
        A refused, reset, or stalled connection is *not* completed and
        must not be re-dialed every 30 minutes.
        """
        return self in (
            DialOutcome.DISCONNECT_BEFORE_HELLO,
            DialOutcome.HELLO_NO_STATUS,
            DialOutcome.HELLO_THEN_DISCONNECT,
            DialOutcome.FULL_HARVEST,
        )


@dataclass(slots=True)
class DialResult:
    """Everything a single connection attempt yields (one NodeFinder log line)."""

    timestamp: float
    node_id: bytes
    ip: str
    tcp_port: int
    connection_type: str  # dynamic-dial | static-dial | incoming
    outcome: DialOutcome
    latency: float = 0.0
    duration: float = 0.0
    client_id: Optional[str] = None
    capabilities: Optional[list[tuple[str, int]]] = None
    listen_port: Optional[int] = None
    network_id: Optional[int] = None
    genesis_hash: Optional[bytes] = None
    total_difficulty: Optional[int] = None
    best_hash: Optional[bytes] = None
    best_block: Optional[int] = None
    disconnect_reason: Optional[DisconnectReason] = None
    dao_side: Optional[str] = None  # supports | opposes | empty
    #: chain head height of the node's network when STATUS was taken —
    #: freshness (Figure 14) is the lag against *this*, not a later head
    head_height: Optional[int] = None
    #: which harvest stage failed: connect | rlpx | hello | status | dao
    failure_stage: Optional[str] = None
    #: how it failed: refused | stalled | reset | truncated | unreachable |
    #: protocol — the fine-grained taxonomy a flat timeout conflates
    failure_detail: Optional[str] = None

    @property
    def got_hello(self) -> bool:
        return self.client_id is not None

    @property
    def got_status(self) -> bool:
        return self.network_id is not None


@dataclass
class DayCounters:
    """One instance-day of crawl activity."""

    discovery_attempts: int = 0
    dynamic_dial_attempts: int = 0
    static_dial_attempts: int = 0
    incoming_connections: int = 0
    nodes_dialed: set = field(default_factory=set)
    nodes_responded: set = field(default_factory=set)
    hellos: int = 0
    statuses: int = 0
    disconnects_received: dict = field(default_factory=lambda: defaultdict(int))

    def merge(self, other: "DayCounters") -> None:
        self.discovery_attempts += other.discovery_attempts
        self.dynamic_dial_attempts += other.dynamic_dial_attempts
        self.static_dial_attempts += other.static_dial_attempts
        self.incoming_connections += other.incoming_connections
        self.nodes_dialed |= other.nodes_dialed
        self.nodes_responded |= other.nodes_responded
        self.hellos += other.hellos
        self.statuses += other.statuses
        for reason, count in other.disconnects_received.items():
            self.disconnects_received[reason] += count


_RESPONDED_OUTCOMES = {
    DialOutcome.HELLO_THEN_DISCONNECT,
    DialOutcome.HELLO_NO_STATUS,
    DialOutcome.FULL_HARVEST,
    DialOutcome.DISCONNECT_BEFORE_HELLO,
}


class CrawlStats:
    """Aggregated counters for one NodeFinder instance (or a merged fleet)."""

    def __init__(self) -> None:
        self.days: dict[int, DayCounters] = defaultdict(DayCounters)
        self.bootstrap_dials: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._bootstrap_id: Optional[bytes] = None

    def watch_bootstrap(self, node_id: bytes) -> None:
        """Track dials to one bootstrap node for the Figure 8 series."""
        self._bootstrap_id = node_id

    def record_discovery(self, day: int, lookups: int = 1) -> None:
        self.days[day].discovery_attempts += lookups

    def record_dial(self, day: int, result: DialResult) -> None:
        counters = self.days[day]
        if result.connection_type == "dynamic-dial":
            counters.dynamic_dial_attempts += 1
            counters.nodes_dialed.add(result.node_id)
            if result.outcome in _RESPONDED_OUTCOMES:
                counters.nodes_responded.add(result.node_id)
        elif result.connection_type == "static-dial":
            counters.static_dial_attempts += 1
        else:
            counters.incoming_connections += 1
        if result.got_hello:
            counters.hellos += 1
        if result.got_status:
            counters.statuses += 1
        if result.disconnect_reason is not None:
            counters.disconnects_received[result.disconnect_reason] += 1
        if (
            self._bootstrap_id is not None
            and result.node_id == self._bootstrap_id
            and result.outcome is not DialOutcome.TIMEOUT
        ):
            self.bootstrap_dials[day][result.connection_type] += 1

    # -- series extraction (the paper's figures) ------------------------------

    def series(self, attribute: str) -> list[tuple[int, float]]:
        """A per-day series, e.g. ``series('discovery_attempts')``."""
        out = []
        for day in sorted(self.days):
            value = getattr(self.days[day], attribute)
            if isinstance(value, set):
                value = len(value)
            out.append((day, value))
        return out

    def daily_average(self, attribute: str, skip_first: int = 0) -> float:
        points = self.series(attribute)[skip_first:]
        if not points:
            return 0.0
        return sum(value for _, value in points) / len(points)

    def bootstrap_series(self) -> list[tuple[int, int, int]]:
        """(day, dynamic dials, static dials) to the watched bootstrap node."""
        out = []
        for day in sorted(self.bootstrap_dials):
            row = self.bootstrap_dials[day]
            out.append((day, row.get("dynamic-dial", 0), row.get("static-dial", 0)))
        return out

    def merge(self, other: "CrawlStats") -> None:
        for day, counters in other.days.items():
            self.days[day].merge(counters)
        for day, row in other.bootstrap_dials.items():
            for kind, count in row.items():
                self.bootstrap_dials[day][kind] += count

    @classmethod
    def merged(cls, stats: "Iterable[CrawlStats]") -> "CrawlStats":
        """One stats object folding every input (the fleet view).

        Mirror of ``NodeDB.merged``: aggregation happens inside the
        owning module, so callers never mutate a ``CrawlStats`` they do
        not own (the OWNERSHIP invariant).
        """
        merged = cls()
        for item in stats:
            merged.merge(item)
        return merged

    def total(self, attribute: str) -> float:
        return sum(value for _, value in self.series(attribute))
