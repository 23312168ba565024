"""Sharded crawl scheduling: the single-writer fold and per-shard state.

The paper's NodeFinder sustained its dial rate with one process; scaling
past that means running N dial workers without giving up the property
every analysis depends on — *one* coherent
:class:`~repro.nodefinder.database.NodeDB`.  The keyspace partition
itself — N contiguous node-ID-prefix ranges, each target owned by exactly
one shard, so no node is ever dialed by two workers and a sharded crawl
visits exactly the set an unsharded crawl would — is
:class:`~repro.nodefinder.reshard.DynamicShardPlan`.  This module holds
what the shards of that plan share and what each owns:

* :class:`NodeDBWriter` — the single mutation point for shared crawl
  state.  Every ``DialResult`` folds into the shared ``NodeDB`` (and
  ``CrawlStats``) *only* through ``submit``, a synchronous call: the
  simulation is single-threaded and asyncio runs one coroutine at a
  time, so a fold with no ``await`` in it is already serialised and the
  shard dial loops need no queue and no lock.  A fold that raises
  propagates to the dial that submitted it, in both drivers.
  The OWNERSHIP lint family enforces the invariant type-resolved and
  tree-wide: a ``NodeDB``/``CrawlStats`` mutation outside a writer class
  (or the owning module) is an error.
* :class:`ShardState` — one live dial worker's private queue and dial
  slots (StaticNodes and the breaker gate are the crawl's, held by the
  policy in :class:`~repro.nodefinder.core.CrawlerCore`).

Fold order across live shards is not deterministic, and does not need
to be: ``NodeDB.observe`` folds per *node* in timestamp order
(each node is owned by one shard, which preserves its dial order), and
``CrawlStats`` day counters are order-insensitive sums and sets.  The
shard-conformance suite pins entry-for-entry equality against the
unsharded crawl.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional

from repro.telemetry.profiler import NULL_PROFILER
from repro.units import SECONDS_PER_DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nodefinder.database import NodeDB, NodeEntry
    from repro.nodefinder.records import CrawlStats, DialResult
    from repro.telemetry import Telemetry

#: the partition key is the first two node-ID bytes: 2^16 prefixes
PREFIX_SPACE = 1 << 16


class NodeDBWriter:
    """Single writer folding every ``DialResult`` into shared crawl state."""

    def __init__(
        self,
        db: "NodeDB",
        stats: Optional["CrawlStats"] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.db = db
        self.stats = stats
        self.telemetry = telemetry
        self.folds = 0

    def submit(self, result: "DialResult") -> "NodeEntry":
        """Fold one result; whatever the fold raises reaches the caller."""
        profiler = (
            self.telemetry.profiler if self.telemetry is not None else NULL_PROFILER
        )
        with profiler.scope("writer.fold"):
            if self.stats is not None:
                self.stats.record_dial(
                    int(result.timestamp // SECONDS_PER_DAY), result
                )
            entry = self.db.observe(result)
            self.folds += 1
            return entry

    # -- stats passthroughs --------------------------------------------------
    #
    # Crawl bookkeeping that is not dial-result-shaped still goes through
    # the writer, so CrawlStats has exactly one mutating owner.

    def record_discovery(self, day: int, lookups: int = 1) -> None:
        """Count discovery lookups for the Figure 5 series."""
        if self.stats is not None:
            self.stats.record_discovery(day, lookups)

    def watch_bootstrap(self, node_id: bytes) -> None:
        """Arm the Figure 8 bootstrap-dial series."""
        if self.stats is not None:
            self.stats.watch_bootstrap(node_id)


class ShardState:
    """One live dial worker's private state: queue and dial slots.

    Everything here is owned by exactly one shard loop — the only shared
    object a shard touches is the :class:`NodeDBWriter`, which is why the
    hot path needs no locks.  ``telemetry`` is the crawl's facade under
    this segment's ``shard`` label; which journal file a record lands in
    is the crawl's journal's to decide, not the shard's.
    """

    def __init__(
        self,
        index: int,
        telemetry: "Telemetry",
        max_active_dials: int,
        segment: str,
    ) -> None:
        self.index = index
        self.telemetry = telemetry
        #: stable segment id (``<k>.g<gen>``); the positional ``index``
        #: shifts when the plan reshards, the segment never does, so
        #: journal files and flight-recorder rings key on it
        self.segment = segment
        #: dynamic-dial targets routed here by the discovery loop
        self.queue: asyncio.Queue = asyncio.Queue()
        #: per-shard dial-slot budget (total live concurrency is N * this)
        self.semaphore = asyncio.Semaphore(max_active_dials)
        #: set by a reshard handoff: the loop drains and exits cleanly
        self.retired = False
        #: the supervised loop task, so a handoff can await the drain
        self.task: Optional[asyncio.Task] = None
