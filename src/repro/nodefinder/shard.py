"""The shard plan, the single-writer fold and the crawl's journal files.

The paper's NodeFinder sustained its dial rate with one process and
scaled out with more *instances* (§4).  What is left to partition inside
one crawler is its journal: the simnet crawler may spread its records
over N files by node-ID prefix, and every analysis depends on the
partition being invisible — *one* coherent
:class:`~repro.nodefinder.database.NodeDB` whatever N is.  This module
holds the pieces that make it so:

* :class:`ShardPlan` — N contiguous node-ID-prefix ranges, fixed for the
  crawl: shard ``k`` owns ``[ceil(k * 65536 / N), ceil((k + 1) * 65536 /
  N))`` of the first two ID bytes, so every node has exactly one owning
  shard and ``shards=1`` puts every node in shard 0.
* :class:`NodeDBWriter` — the single mutation point for shared crawl
  state.  Every ``DialResult`` folds into the shared ``NodeDB`` (and
  ``CrawlStats``) *only* through ``submit``, a synchronous call: the
  simulation is single-threaded and asyncio runs one coroutine at a
  time, so a fold with no ``await`` in it is already serialised and
  needs no queue and no lock.  A fold that raises propagates to the dial
  that submitted it, in both drivers.  The OWNERSHIP lint family
  enforces the invariant type-resolved and tree-wide: a
  ``NodeDB``/``CrawlStats`` mutation outside a writer class (or the
  owning module) is an error.
* :class:`JournalRouter` — the crawl's journal: one file per shard, and
  one rule placing every record in one of them.
* :class:`SegmentFiles` — the ``opener`` both CLIs hand a crawler: a
  directory and a stem to the shard files' names.
"""

from __future__ import annotations

import bisect
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Union

from repro.telemetry.journal import Event, EventJournal
from repro.telemetry.profiler import NULL_PROFILER
from repro.units import SECONDS_PER_DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nodefinder.database import NodeDB, NodeEntry
    from repro.nodefinder.records import CrawlStats, DialResult
    from repro.telemetry import Telemetry

#: the partition key is the first two node-ID bytes: 2^16 prefixes
PREFIX_SPACE = 1 << 16


class ShardPlan:
    """A fixed partition of the 16-bit prefix space into ``shards`` ranges,
    even by ceil division."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        #: each range's ``lo``, ascending from 0 — ``shard_of`` runs per
        #: dial, so the bounds are computed once
        self._bounds = tuple(-(-index * PREFIX_SPACE // shards) for index in range(shards))

    def shard_of(self, node_id: bytes) -> int:
        """Index of the range owning ``node_id``."""
        return bisect.bisect_right(self._bounds, int.from_bytes(node_id[:2], "big")) - 1


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


class JournalRouter:
    """The crawl's journal: one file per shard, every record placed by one rule.

    ``opener`` maps a shard's id (``"<k>"``) to a fresh
    :class:`EventJournal`; a crawler given one instruments through
    :meth:`facade`, which makes this object the journal of every facade
    the crawl hands out, so a record lands in the right file whoever
    emits it.  The placement rule, stated once: a write about a node — it
    arrives with the node ID's bytes — goes to the file of the shard
    owning that prefix, the file holding the node's dials, and any other
    to shard 0's.  Every file opens with the ``crawler`` record, so each
    names whose crawl it is.  Without an opener there are no files.
    """

    def __init__(
        self,
        plan: ShardPlan,
        opener: Optional[Callable[[str], EventJournal]],
        clock: Callable[[], float],
        node_id: bytes,
        name: str,
    ) -> None:
        self.plan = plan
        self._opener = opener
        self._clock = clock
        self._journals: List[EventJournal] = []
        if opener is not None:
            identity = {"node_id": node_id.hex(), "name": name}
            for index in range(plan.shards):
                journal = opener(str(index))
                journal.emit(Event("crawler", clock(), identity))
                self._journals.append(journal)

    def facade(self, telemetry: "Telemetry") -> "Telemetry":
        """``telemetry`` journaling through this router on its clock — the
        crawl-wide facade every other facade of the crawl derives from —
        or ``telemetry`` as it came when there are no files."""
        if self._opener is None:
            return telemetry
        return telemetry.with_journal(self, self._clock)

    def write_lines(
        self, text: str, records: int = 1, node_id: Optional[bytes] = None
    ) -> None:
        index = 0 if node_id is None else self.plan.shard_of(node_id)
        self._journals[index].write_lines(text, records)

    def close(self) -> None:
        """Close every file (crawl shutdown)."""
        for journal in self._journals:
            journal.close()
        self._journals.clear()


class SegmentFiles:
    """A crawl's journal files under one directory: the ``opener`` to give
    its crawler, every path opened so far, and a close-all.

    Shard ``k`` journals to ``<stem>-shard<k>.jsonl``; the one file of a
    one-shard crawl is named plain ``<stem>.jsonl`` — decided here and
    nowhere else.
    """

    def __init__(self, directory: Union[str, Path], stem: str, shards: int) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._stem = stem
        self._single = shards <= 1
        self.paths: List[Path] = []
        self._journals: List[EventJournal] = []

    def __call__(self, shard: str) -> EventJournal:
        suffix = "" if self._single else f"-shard{shard}"
        self.paths.append(self._directory / f"{self._stem}{suffix}.jsonl")
        self._journals.append(EventJournal.open(self.paths[-1]))
        return self._journals[-1]

    def close(self) -> None:
        """Close every journal opened (idempotent)."""
        for journal in self._journals:
            journal.close()
