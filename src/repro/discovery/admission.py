"""Routing-table admission guards against Sybil and ID-grinding attacks.

Henningsen et al.'s false-friend eclipse ("Eclipsing Ethereum Peers with
False Friends", see PAPERS.md) works by flooding a victim's Kademlia
table with attacker enodes — cheap to mint because node IDs are free and
one host can claim many of them.  Geth's production defence limits how
much of the table a single network location can own: at most
``ips_per_subnet`` table entries from one /24 (Geth's ``tableIPLimit``)
and at most ``ips_per_bucket`` per k-bucket (``bucketIPLimit``).  We add
a third guard the grinding attack motivates: at most ``ids_per_ip``
*distinct node IDs* from one IP, since a grinder re-keys the same host
over and over to land in chosen buckets.

:class:`TableAdmission` holds those counters; a :class:`~repro.discovery.
routing.RoutingTable` constructed with one consults it before admitting a
genuinely-new node and keeps the counts in sync on eviction/removal.
Rejections are reported through ``on_reject`` so the owner can journal
them (the ``table_admission`` event, schema v3).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.discovery.enode import ENode
from repro.resilience.breaker import subnet_of

#: Geth's tableIPLimit / bucketIPLimit defaults (p2p/discover/table.go).
DEFAULT_IPS_PER_SUBNET = 10
DEFAULT_IPS_PER_BUCKET = 2
#: anti-grinding: distinct node IDs one IP may hold in the table at once
DEFAULT_IDS_PER_IP = 2

#: rejection reasons (stable strings — they key metrics and journals)
REASON_SUBNET_TABLE = "subnet-table-limit"
REASON_SUBNET_BUCKET = "subnet-bucket-limit"
REASON_IP_ID = "ip-id-limit"


class TableAdmission:
    """Per-/24 and per-IP occupancy limits for one routing table.

    The guard is advisory: the table asks :meth:`check` before inserting
    a new node and reports inserts/removals via :meth:`note_add` /
    :meth:`note_remove`, so the counters always mirror live table
    membership (replacement-cache entries are never counted — they were
    refused entry before reaching it, or will be re-checked on
    promotion).
    """

    def __init__(
        self,
        ips_per_subnet: int = DEFAULT_IPS_PER_SUBNET,
        ips_per_bucket: int = DEFAULT_IPS_PER_BUCKET,
        ids_per_ip: int = DEFAULT_IDS_PER_IP,
        prefix_bits: int = 24,
        on_reject: Optional[Callable[[ENode, str, Optional[str]], None]] = None,
    ) -> None:
        self.ips_per_subnet = ips_per_subnet
        self.ips_per_bucket = ips_per_bucket
        self.ids_per_ip = ids_per_ip
        self.prefix_bits = prefix_bits
        self.on_reject = on_reject
        #: node_id -> (ip, subnet, bucket index) for everything admitted
        self._members: Dict[bytes, Tuple[str, Optional[str], int]] = {}
        self._per_subnet: Dict[str, int] = {}
        self._per_bucket: Dict[Tuple[str, int], int] = {}
        self._per_ip: Dict[str, int] = {}
        #: total refusals by reason, for stats surfacing
        self.rejections: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._members)

    def _reject(self, node: ENode, reason: str, subnet: Optional[str]) -> str:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        if self.on_reject is not None:
            self.on_reject(node, reason, subnet)
        return reason

    def check(self, node: ENode, bucket_index: int) -> Optional[str]:
        """Why ``node`` may not join ``bucket_index`` — or None if it may."""
        if node.node_id in self._members:
            return None
        subnet = subnet_of(node.ip, self.prefix_bits)
        if subnet is not None:
            if self._per_subnet.get(subnet, 0) >= self.ips_per_subnet:
                return self._reject(node, REASON_SUBNET_TABLE, subnet)
            if self._per_bucket.get((subnet, bucket_index), 0) >= self.ips_per_bucket:
                return self._reject(node, REASON_SUBNET_BUCKET, subnet)
        if self._per_ip.get(node.ip, 0) >= self.ids_per_ip:
            return self._reject(node, REASON_IP_ID, subnet)
        return None

    def note_add(self, node: ENode, bucket_index: int) -> None:
        if node.node_id in self._members:
            return
        subnet = subnet_of(node.ip, self.prefix_bits)
        self._members[node.node_id] = (node.ip, subnet, bucket_index)
        if subnet is not None:
            self._per_subnet[subnet] = self._per_subnet.get(subnet, 0) + 1
            key = (subnet, bucket_index)
            self._per_bucket[key] = self._per_bucket.get(key, 0) + 1
        self._per_ip[node.ip] = self._per_ip.get(node.ip, 0) + 1

    def note_remove(self, node_id: bytes) -> None:
        record = self._members.pop(node_id, None)
        if record is None:
            return
        ip, subnet, bucket_index = record
        if subnet is not None:
            self._decrement(self._per_subnet, subnet)
            self._decrement(self._per_bucket, (subnet, bucket_index))
        self._decrement(self._per_ip, ip)

    @staticmethod
    def _decrement(counts: dict, key) -> None:
        left = counts.get(key, 0) - 1
        if left > 0:
            counts[key] = left
        else:
            counts.pop(key, None)

    @property
    def total_rejections(self) -> int:
        return sum(self.rejections.values())
