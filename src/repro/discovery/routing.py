"""The RLPx routing table: 257 log-distance buckets of k nodes each.

The table is keyed by the *metric function*, which lets the simulator build
Geth-behaving and Parity-behaving tables from the same code and reproduce
the §6.3 friction experiment: a Parity table files neighbours under its
buggy summed-byte distance, so its NEIGHBORS answers for a Geth-style query
come from the wrong region of the ID space.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.crypto.keccak import keccak256
from repro.discovery import distance as dist
from repro.discovery.enode import ENode, cached_id_hash_int
from repro.discovery.kbucket import DEFAULT_BUCKET_SIZE, KBucket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.discovery.admission import TableAdmission

#: Nodes returned per FIND_NODE (Geth's bucketSize).
K_NEIGHBORS = 16

MetricFn = Callable[[bytes, bytes], int]


class RoutingTable:
    """A Kademlia routing table over 32-byte ID hashes.

    ``metric`` maps two ID hashes to a log distance; the table allocates one
    k-bucket per possible distance value (257 for Geth's metric).
    """

    def __init__(
        self,
        own_id_hash: bytes,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        metric: MetricFn = dist.geth_log_distance,
        clock: Callable[[], float] = time.monotonic,
        admission: Optional["TableAdmission"] = None,
    ) -> None:
        if len(own_id_hash) != 32:
            raise ValueError("own ID hash must be 32 bytes")
        self.own_id_hash = own_id_hash
        self.metric = metric
        self.bucket_size = bucket_size
        self._clock = clock
        #: optional anti-Sybil occupancy guard consulted on new inserts
        self.admission = admission
        self._buckets: dict[int, KBucket] = {}
        self._nodes_by_id: dict[bytes, ENode] = {}

    @classmethod
    def for_node_id(cls, node_id: bytes, **kwargs) -> "RoutingTable":
        """Build a table for a raw 64-byte node ID."""
        return cls(keccak256(node_id), **kwargs)

    def __len__(self) -> int:
        return len(self._nodes_by_id)

    def __contains__(self, node: ENode) -> bool:
        return node.node_id in self._nodes_by_id

    def __iter__(self) -> Iterator[ENode]:
        return iter(list(self._nodes_by_id.values()))

    def bucket_for(self, id_hash: bytes) -> KBucket:
        """The bucket a node with ``id_hash`` belongs to (created lazily)."""
        log_distance = self.metric(self.own_id_hash, id_hash)
        bucket = self._buckets.get(log_distance)
        if bucket is None:
            bucket = KBucket(size=self.bucket_size, clock=self._clock)
            self._buckets[log_distance] = bucket
        return bucket

    def bucket_index_of(self, node: ENode) -> int:
        return self.metric(self.own_id_hash, node.id_hash)

    @property
    def buckets(self) -> dict[int, KBucket]:
        """Live buckets keyed by log distance (sparse)."""
        return dict(self._buckets)

    def add(self, node: ENode) -> Optional[ENode]:
        """Insert or refresh ``node``.

        Returns the eviction-check candidate if the target bucket was full
        (see :meth:`KBucket.touch`), else None.  The node's own ID is
        silently ignored, as is a genuinely-new node the optional
        admission guard refuses (refreshes of already-admitted nodes are
        never guarded).
        """
        id_hash = node.id_hash
        if id_hash == self.own_id_hash:
            return None
        bucket_index = self.metric(self.own_id_hash, id_hash)
        bucket = self.bucket_for(id_hash)
        known = bucket.entry_for(node.node_id) is not None
        if not known and self.admission is not None:
            if self.admission.check(node, bucket_index) is not None:
                return None
        candidate = bucket.touch(node)
        if bucket.entry_for(node.node_id) is not None:
            if not known and self.admission is not None:
                self.admission.note_add(node, bucket_index)
            self._nodes_by_id[node.node_id] = node
        return candidate

    def confirm_alive(self, node: ENode) -> None:
        """Eviction candidate answered: keep it (Kademlia favours old nodes)."""
        self.bucket_for(node.id_hash).keep(node.node_id)

    def evict(self, node: ENode) -> Optional[ENode]:
        """Eviction candidate failed: drop it, promote a replacement."""
        bucket = self.bucket_for(node.id_hash)
        replacement = bucket.evict(node.node_id)
        self._nodes_by_id.pop(node.node_id, None)
        if self.admission is not None:
            self.admission.note_remove(node.node_id)
        if replacement is not None:
            if self.admission is not None:
                self.admission.note_add(
                    replacement, self.bucket_index_of(replacement)
                )
            self._nodes_by_id[replacement.node_id] = replacement
        return replacement

    def remove(self, node: ENode) -> bool:
        removed = self.bucket_for(node.id_hash).remove(node.node_id)
        self._nodes_by_id.pop(node.node_id, None)
        if removed and self.admission is not None:
            self.admission.note_remove(node.node_id)
        return removed

    def note_failure(self, node: ENode, max_fails: int = 5) -> bool:
        dropped = self.bucket_for(node.id_hash).note_failure(node.node_id, max_fails)
        if dropped:
            self._nodes_by_id.pop(node.node_id, None)
            if self.admission is not None:
                self.admission.note_remove(node.node_id)
        return dropped

    def get(self, node_id: bytes) -> Optional[ENode]:
        return self._nodes_by_id.get(node_id)

    def closest_to(self, target_hash: bytes, count: int = K_NEIGHBORS) -> list[ENode]:
        """The ``count`` table nodes closest to ``target_hash``.

        Closeness is raw XOR distance (Kademlia's total order), which both
        clients use when *sorting* candidates; the buggy Parity metric only
        affects which bucket a node is filed under, i.e. which nodes are in
        the table near a given distance at all.
        """
        target = int.from_bytes(target_hash, "big")
        return sorted(
            self._nodes_by_id.values(),
            key=lambda node: cached_id_hash_int(node.node_id) ^ target,
        )[:count]

    def closest_in_buckets(
        self,
        target_hash: bytes,
        count: int = K_NEIGHBORS,
        sort_by_own_metric: bool = False,
    ) -> list[ENode]:
        """Bucket-guided nearest lookup: search outward from the target bucket.

        This mirrors how an implementation actually serves FIND_NODE — it
        consults buckets by the *table's own metric*, so a table built with
        the Parity metric returns structurally different answers.

        Geth finally orders candidates by true XOR distance;
        ``sort_by_own_metric=True`` instead ranks them by the table's metric
        with an arbitrary tiebreak — which is what Parity's
        ``nearest_node_entries`` does, and why its answers barely help a
        Geth-style lookup converge (§6.3).
        """
        center = self.metric(self.own_id_hash, target_hash)
        found: list[ENode] = []
        for offset in range(0, dist.NUM_DISTANCES):
            for index in {center - offset, center + offset}:
                bucket = self._buckets.get(index)
                if bucket is not None:
                    found.extend(bucket.nodes)
            if len(found) >= count * 2:
                break
        target = int.from_bytes(target_hash, "big")
        if sort_by_own_metric:
            found.sort(
                key=lambda node: (
                    self.metric(node.id_hash, target_hash),
                    node.id_hash[-2:],  # arbitrary, metric-blind tiebreak
                )
            )
        else:
            found.sort(key=lambda node: cached_id_hash_int(node.node_id) ^ target)
        return found[:count]

    def random_nodes(self, count: int, rng) -> list[ENode]:
        """``count`` random table nodes (used when seeding dials)."""
        nodes = list(self._nodes_by_id.values())
        if len(nodes) <= count:
            return nodes
        return rng.sample(nodes, count)

    def bucket_fill_histogram(self) -> dict[int, int]:
        """Occupancy per log distance — the Figure 11 view of a live table."""
        return {
            index: len(bucket)
            for index, bucket in sorted(self._buckets.items())
            if len(bucket)
        }

    def extend(self, nodes: Iterable[ENode]) -> None:
        for node in nodes:
            self.add(node)
