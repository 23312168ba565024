"""A Kademlia k-bucket with the old-node-favouring eviction policy.

Each bucket holds at most ``k`` (default 16) node entries ordered from least
to most recently seen.  When a new node arrives and the bucket is full,
Kademlia does *not* evict: the caller is expected to ping the least recently
seen entry and only replace it if it fails to answer (paper §2.1).  The
bucket keeps a small replacement cache of candidates for that case, as Geth
does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.discovery.enode import ENode

DEFAULT_BUCKET_SIZE = 16
DEFAULT_REPLACEMENT_CACHE_SIZE = 10


@dataclass
class BucketEntry:
    """A node plus liveness bookkeeping."""

    node: ENode
    added_at: float
    last_seen: float


class KBucket:
    """One routing-table bucket; least-recently-seen entry at index 0."""

    def __init__(
        self,
        size: int = DEFAULT_BUCKET_SIZE,
        replacement_cache_size: int = DEFAULT_REPLACEMENT_CACHE_SIZE,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.size = size
        self.replacement_cache_size = replacement_cache_size
        self._clock = clock
        self._entries: list[BucketEntry] = []
        self._replacements: list[ENode] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: ENode) -> bool:
        return any(entry.node.node_id == node.node_id for entry in self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.size

    @property
    def nodes(self) -> list[ENode]:
        """Nodes from least to most recently seen."""
        return [entry.node for entry in self._entries]

    @property
    def replacement_cache(self) -> list[ENode]:
        return list(self._replacements)

    def entry_for(self, node_id: bytes) -> Optional[BucketEntry]:
        for entry in self._entries:
            if entry.node.node_id == node_id:
                return entry
        return None

    def touch(self, node: ENode) -> Optional[ENode]:
        """Record activity from ``node``.

        If the node is already present it moves to the most-recently-seen end
        and ``None`` is returned.  If the bucket has room it is appended.  If
        the bucket is full, the node goes to the replacement cache and the
        least recently seen entry is returned as the eviction-check
        candidate: the caller should ping it and call
        :meth:`evict` / :meth:`keep` with the outcome.
        """
        now = self._clock()
        entry = self.entry_for(node.node_id)
        if entry is not None:
            entry.last_seen = now
            entry.node = node  # endpoint may have changed
            self._entries.remove(entry)
            self._entries.append(entry)
            return None
        if not self.is_full:
            self._entries.append(BucketEntry(node=node, added_at=now, last_seen=now))
            self._drop_replacement(node.node_id)
            return None
        self._add_replacement(node)
        return self._entries[0].node

    def _drop_replacement(self, node_id: bytes) -> None:
        self._replacements = [
            cached for cached in self._replacements if cached.node_id != node_id
        ]

    def _add_replacement(self, node: ENode) -> None:
        self._replacements = [
            cached for cached in self._replacements
            if cached.node_id != node.node_id
        ]
        self._replacements.append(node)
        if len(self._replacements) > self.replacement_cache_size:
            self._replacements.pop(0)

    def keep(self, node_id: bytes) -> None:
        """The eviction candidate answered its PING: keep it, refresh it."""
        entry = self.entry_for(node_id)
        if entry is None:
            return
        entry.last_seen = self._clock()
        self._entries.remove(entry)
        self._entries.append(entry)

    def evict(self, node_id: bytes) -> Optional[ENode]:
        """The eviction candidate failed its PING: drop it.

        The newest replacement-cache node (if any) takes the slot and is
        returned.
        """
        entry = self.entry_for(node_id)
        if entry is not None:
            self._entries.remove(entry)
        while self._replacements and not self.is_full:
            replacement = self._replacements.pop()
            if self.entry_for(replacement.node_id) is not None:
                continue  # already promoted through another path
            now = self._clock()
            self._entries.append(
                BucketEntry(node=replacement, added_at=now, last_seen=now)
            )
            return replacement
        return None
