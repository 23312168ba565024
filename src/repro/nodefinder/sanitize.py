"""Data sanitisation: the §5.4 abusive-node-ID filter.

The paper found 21.5% of all node IDs came from 0.3% of IPs that churn out
fresh identities (the flagship: 42,237 `ethereumjs-devp2p/v1.0.0` nodes on
one IP, best hash pinned at genesis, 80% seen once).  The published filter:

1. choose nodes active for less than 30 minutes;
2. group them by IP;
3. exclude IPs mapping to fewer than 3 such nodes;
4. compute each IP's new-node generation rate;
5. flag IPs generating a new node every 30 minutes or faster on average.

NodeFinder's own scanner nodes (and other scanners recognisable by
behaviour) are removed as well — the paper drops 242 of them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.nodefinder.database import NodeDB, NodeEntry

#: "active for less than 30 minutes" (step 1), seconds.
SHORT_LIVED_SPAN = 30 * 60.0

#: step 3 threshold.
MIN_NODES_PER_IP = 3

#: step 5: a new node every 30 minutes or faster.
MAX_GENERATION_INTERVAL = 30 * 60.0


@dataclass
class SanitizationReport:
    """What the filter decided and why."""

    total_nodes: int = 0
    abusive_node_ids: set = field(default_factory=set)
    abusive_ips: set = field(default_factory=set)
    scanner_node_ids: set = field(default_factory=set)
    per_ip_counts: dict = field(default_factory=dict)

    @property
    def abusive_fraction(self) -> float:
        if not self.total_nodes:
            return 0.0
        return len(self.abusive_node_ids) / self.total_nodes


def find_abusive(db: NodeDB) -> SanitizationReport:
    """Apply the five-step filter; returns the report without mutating ``db``."""
    report = SanitizationReport(total_nodes=len(db))
    # step 1: short-lived node IDs
    short_lived = [entry for entry in db if entry.active_span < SHORT_LIVED_SPAN]
    # step 2: group by IP (a node seen at several IPs counts for each)
    by_ip: dict[str, list[NodeEntry]] = defaultdict(list)
    for entry in short_lived:
        for ip in entry.ips:
            by_ip[ip].append(entry)
    for ip, entries in by_ip.items():
        # step 3: at least 3 short-lived nodes on the IP
        if len(entries) < MIN_NODES_PER_IP:
            continue
        # step 4: generation rate = IP activity span / number of new nodes
        first = min(entry.first_seen for entry in entries)
        last = max(entry.last_seen for entry in entries)
        span = max(last - first, 1.0)
        interval = span / len(entries)
        report.per_ip_counts[ip] = len(entries)
        # step 5
        if interval <= MAX_GENERATION_INTERVAL:
            report.abusive_ips.add(ip)
            for entry in entries:
                report.abusive_node_ids.add(entry.node_id)
    return report


def find_scanners(db: NodeDB, own_node_ids: Iterable[bytes] = ()) -> set:
    """Nodes running NodeFinder (ours and others') to exclude (§5.4)."""
    scanners = set(own_node_ids)
    for entry in db:
        if entry.client_id and "nodefinder" in entry.client_id.lower():
            scanners.add(entry.node_id)
    return scanners


def sanitize(
    db: NodeDB, own_node_ids: Iterable[bytes] = ()
) -> tuple[NodeDB, SanitizationReport]:
    """Return a cleaned copy of ``db`` plus the report."""
    report = find_abusive(db)
    report.scanner_node_ids = find_scanners(db, own_node_ids)
    to_remove = report.abusive_node_ids | report.scanner_node_ids
    cleaned = NodeDB.from_entries(
        entry for entry in db if entry.node_id not in to_remove
    )
    return cleaned, report
