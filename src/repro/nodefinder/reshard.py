"""The shard plan and its mid-crawl changes: split a hot shard, merge cold ones.

Every crawl — simulated or live, one shard or N — partitions the enode
keyspace with one :class:`DynamicShardPlan`; a crawl that never reshards
is simply a plan no operation was applied to.  A churn burst (or a Sybil
swarm) concentrated in one prefix slice would otherwise gate the whole
crawl on its hottest shard, so the plan can change while the crawl runs,
keeping every determinism property the conformance suites pin:

* :class:`DynamicShardPlan` — a list of contiguous half-open 16-bit prefix
  ranges covering the keyspace, ceil-division even at generation 0.
  ``split`` halves one range, ``merge`` fuses two adjacent ones; every
  operation mints a fresh *generation* and each live range carries a
  stable **segment id** ``"<k>.g<gen>"`` (its positional index at birth
  plus the generation that created it) used for journal file names and
  flight-recorder rings — positional indices shift as the tree changes,
  segment ids never collide.
* :class:`ReshardController` — turns per-shard queue depths
  into split/merge decisions with hysteresis (a shard must look hot/cold
  for ``hysteresis`` consecutive observations) and a cooldown between
  operations so the plan doesn't flap.  A scripted
  ``schedule`` of :class:`ReshardOp` entries drives the deterministic
  conformance crawls.
* :class:`ReshardCoordinator` — the crawl's journal: it owns the segment
  files, places every record in one of them by one rule (the plan is
  *looked up*, ``plan.shard_of``; no caller picks a file by picking a
  facade), and moves them on a handoff:
  :meth:`~ReshardCoordinator.handoff` mutates the plan, writes the
  schema-v4 ``reshard`` record into each parent's segment, **seals** it
  (only this class may — the OWNERSHIP lint enforces it) and opens the
  children's generation-suffixed segments.
* :class:`SegmentFiles` — the ``opener`` both CLIs hand a crawler: a
  directory and a stem to the segments' file names.

What is left to each crawler is what differs between them: the simnet
scanner applies an operation between ticks, the live crawler first drains
and retires the parent loops, then moves their queues and spawns the
children.  StaticNodes is one dict the plan is not in, so a handoff moves
none of it.  Both route every fold through the single
:class:`~repro.nodefinder.shard.NodeDBWriter`, so replaying the merged
generation files reconstructs the live NodeDB entry-for-entry (pinned by
``tests/test_reshard_conformance.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.nodefinder.shard import PREFIX_SPACE
from repro.telemetry.journal import Event, EventJournal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class ShardRange:
    """One live shard's contiguous prefix range ``[lo, hi)``.

    ``segment`` is the stable identity used for journal files and
    flight-recorder rings: ``"<positional index at birth>.g<generation>"``.
    Generations are minted by the plan — one per split/merge — so two
    ranges can never share a segment id even after the positional indices
    shift.
    """

    lo: int
    hi: int
    generation: int = 0
    segment: str = ""

    @property
    def width(self) -> int:
        return self.hi - self.lo


class ReshardError(ValueError):
    """An infeasible split/merge was requested (width 1, bounds, limits)."""


class DynamicShardPlan:
    """A mutable partition of the 16-bit prefix space into live ranges.

    Generation 0 is the even ceil-division partition: shard ``k`` of N
    owns ``[ceil(k * 65536 / N), ceil((k + 1) * 65536 / N))``, so with N=1
    every node lands in shard 0 and the unsharded crawl is the 1-shard
    plan.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.generation = 0
        self.ranges: List[ShardRange] = []
        for index in range(shards):
            lo = -(-index * PREFIX_SPACE // shards)
            hi = -(-(index + 1) * PREFIX_SPACE // shards)
            self.ranges.append(
                ShardRange(lo=lo, hi=hi, generation=0, segment=f"{index}.g0")
            )
        #: every operation applied, in order: (generation, action, parent
        #: segments, child segments) — the plan's own audit trail
        self.history: List[Tuple[int, str, Tuple[str, ...], Tuple[str, ...]]] = []
        self._rebuild_bounds()

    def _rebuild_bounds(self) -> None:
        #: each range's ``lo``, ascending from 0 — ``shard_of`` runs per
        #: dial, so the bounds are kept, not rebuilt per call
        self._bounds = tuple(shard_range.lo for shard_range in self.ranges)

    @property
    def shards(self) -> int:
        return len(self.ranges)

    def shard_of(self, node_id: bytes) -> int:
        """Positional index of the range owning ``node_id``."""
        return bisect.bisect_right(self._bounds, int.from_bytes(node_id[:2], "big")) - 1

    def prefix_range(self, shard: int) -> Tuple[int, int]:
        """The half-open 16-bit prefix range ``[lo, hi)`` shard owns."""
        if not 0 <= shard < len(self.ranges):
            raise ValueError(
                f"shard {shard} out of range 0..{len(self.ranges) - 1}"
            )
        shard_range = self.ranges[shard]
        return shard_range.lo, shard_range.hi

    def can_split(self, index: int) -> bool:
        return 0 <= index < len(self.ranges) and self.ranges[index].width >= 2

    def can_merge(self, index: int) -> bool:
        return 0 <= index < len(self.ranges) - 1

    def split(self, index: int) -> Tuple[ShardRange, Tuple[ShardRange, ShardRange]]:
        """Halve range ``index``; returns ``(parent, (left, right))``.

        Both children carry the freshly minted generation; their segment
        ids use the positional indices they are born at (``index`` and
        ``index + 1``).
        """
        if not self.can_split(index):
            raise ReshardError(f"cannot split shard {index}: range too narrow")
        parent = self.ranges[index]
        mid = (parent.lo + parent.hi) // 2
        self.generation += 1
        generation = self.generation
        left = ShardRange(
            lo=parent.lo, hi=mid, generation=generation,
            segment=f"{index}.g{generation}",
        )
        right = ShardRange(
            lo=mid, hi=parent.hi, generation=generation,
            segment=f"{index + 1}.g{generation}",
        )
        self.ranges[index : index + 1] = [left, right]
        self._rebuild_bounds()
        self.history.append(
            (generation, "split", (parent.segment,), (left.segment, right.segment))
        )
        return parent, (left, right)

    def merge(self, index: int) -> Tuple[Tuple[ShardRange, ShardRange], ShardRange]:
        """Fuse adjacent ranges ``index``/``index+1`` into one child."""
        if not self.can_merge(index):
            raise ReshardError(f"cannot merge shard {index} with its right sibling")
        left, right = self.ranges[index], self.ranges[index + 1]
        self.generation += 1
        generation = self.generation
        child = ShardRange(
            lo=left.lo, hi=right.hi, generation=generation,
            segment=f"{index}.g{generation}",
        )
        self.ranges[index : index + 2] = [child]
        self._rebuild_bounds()
        self.history.append(
            (generation, "merge", (left.segment, right.segment), (child.segment,))
        )
        return (left, right), child


@dataclass(frozen=True)
class ReshardOp:
    """One scripted plan change: ``split`` or ``merge`` shard ``index`` at
    controller step ``step`` (the k-th health observation)."""

    step: int
    action: str  # "split" | "merge"
    index: int

    def __post_init__(self) -> None:
        if self.action not in ("split", "merge"):
            raise ValueError(f"unknown reshard action {self.action!r}")


@dataclass
class ReshardPolicy:
    """When the controller may change the plan, and by how much.

    ``schedule`` scripts deterministic operations (the conformance
    harness); without one the decisions are automatic, queue-depth-driven.
    """

    max_shards: int = 8
    min_shards: int = 1
    #: queue depth at/above which a shard counts as hot for one observation
    split_load: float = 32.0
    #: queue depth at/below which a shard counts as cold for one observation
    merge_load: float = 1.0
    #: consecutive hot/cold observations required before acting
    hysteresis: int = 3
    #: seconds between plan changes (suppresses flapping)
    cooldown: float = 60.0
    #: how often the live reshard loop polls the shard queue depths
    interval: float = 5.0
    schedule: Tuple[ReshardOp, ...] = ()

    @property
    def automatic(self) -> bool:
        return not self.schedule


@dataclass
class _Streaks:
    hot: List[int] = field(default_factory=list)
    cold: List[int] = field(default_factory=list)

    def resize(self, shards: int) -> None:
        self.hot = [0] * shards
        self.cold = [0] * shards


class ReshardController:
    """Decides split/merge operations from health observations.

    Scripted operations fire at their exact ``step``; automatic decisions
    need ``hysteresis`` consecutive hot (or cold) observations and respect
    the ``cooldown``.  The controller never reads a clock or RNG of its
    own — steps and ``now`` arrive from the crawler, so a scripted elastic
    crawl is exactly reproducible.
    """

    def __init__(self, policy: ReshardPolicy, plan: DynamicShardPlan) -> None:
        self.policy = policy
        self.plan = plan
        self.step = 0
        self._streaks = _Streaks()
        self._streaks.resize(plan.shards)
        self._last_op_at: Optional[float] = None
        self._schedule = sorted(policy.schedule, key=lambda op: op.step)
        self._schedule_pos = 0

    def observe(self, loads: Sequence[float], now: float = 0.0) -> List[Tuple[str, int]]:
        """Feed one round of per-shard loads; returns ops to apply now.

        ``loads[i]`` is shard i's queue depth (simnet: batch size).  The
        caller applies each returned ``(action, index)`` in order,
        re-reading its own shard list between them — indices are valid
        against the plan as mutated by the preceding operations.
        """
        policy = self.policy
        if len(self._streaks.hot) != self.plan.shards:
            self._streaks.resize(self.plan.shards)
        for index in range(self.plan.shards):
            load = loads[index] if index < len(loads) else 0.0
            hot = load >= policy.split_load
            cold = load <= policy.merge_load
            self._streaks.hot[index] = self._streaks.hot[index] + 1 if hot else 0
            self._streaks.cold[index] = self._streaks.cold[index] + 1 if cold else 0
        step = self.step
        self.step += 1
        ops = self._scripted_ops(step)
        if not ops and policy.automatic:
            decision = self._auto_decide(loads, now)
            if decision is not None:
                ops = [decision]
        if ops:
            self._last_op_at = now
            self._streaks.resize(self.plan.shards)
        return ops

    def _scripted_ops(self, step: int) -> List[Tuple[str, int]]:
        """Scripted ops due at ``step``, each feasible when applied in order.

        The caller applies the returned ops sequentially, mutating the
        plan between them — so a second same-step op must be validated
        against the plan *as its predecessors leave it*, not the plan as
        it stands now (two ``merge 0`` ops at 2 shards would otherwise
        both look feasible and the second would raise mid-crawl; same
        for repeated splits sneaking past ``max_shards``).  A shadow
        copy of the range widths replays each accepted op, so every op
        returned is feasible at its apply point.  Infeasible scripted
        ops are skipped, not raised: Hypothesis drives random schedules
        and the crawl must simply go on.
        """
        ops: List[Tuple[str, int]] = []
        widths = [shard_range.width for shard_range in self.plan.ranges]
        while (
            self._schedule_pos < len(self._schedule)
            and self._schedule[self._schedule_pos].step <= step
        ):
            op = self._schedule[self._schedule_pos]
            self._schedule_pos += 1
            if op.action == "split" and self._split_feasible(widths, op.index):
                width = widths[op.index]
                # plan.split halves at (lo + hi) // 2: left gets floor(w/2)
                widths[op.index : op.index + 1] = [width // 2, width - width // 2]
                ops.append(("split", op.index))
            elif op.action == "merge" and self._merge_feasible(widths, op.index):
                widths[op.index : op.index + 2] = [
                    widths[op.index] + widths[op.index + 1]
                ]
                ops.append(("merge", op.index))
        return ops

    def _split_feasible(self, widths: Sequence[int], index: int) -> bool:
        return (
            len(widths) < self.policy.max_shards
            and 0 <= index < len(widths)
            and widths[index] >= 2
        )

    def _merge_feasible(self, widths: Sequence[int], index: int) -> bool:
        return (
            len(widths) > self.policy.min_shards
            and 0 <= index < len(widths) - 1
        )

    def _split_allowed(self, index: int) -> bool:
        return self._split_feasible(
            [shard_range.width for shard_range in self.plan.ranges], index
        )

    def _merge_allowed(self, index: int) -> bool:
        return self._merge_feasible(
            [shard_range.width for shard_range in self.plan.ranges], index
        )

    def _auto_decide(
        self, loads: Sequence[float], now: float
    ) -> Optional[Tuple[str, int]]:
        policy = self.policy
        if (
            self._last_op_at is not None
            and now - self._last_op_at < policy.cooldown
        ):
            return None
        # split the hottest shard that has been hot long enough
        hottest: Optional[int] = None
        for index in range(self.plan.shards):
            if self._streaks.hot[index] < policy.hysteresis:
                continue
            if not self._split_allowed(index):
                continue
            load = loads[index] if index < len(loads) else 0.0
            if hottest is None or load > (
                loads[hottest] if hottest < len(loads) else 0.0
            ):
                hottest = index
        if hottest is not None:
            return ("split", hottest)
        # merge the coldest adjacent pair where both sides have been cold
        coldest: Optional[int] = None
        coldest_load = 0.0
        for index in range(self.plan.shards - 1):
            if (
                self._streaks.cold[index] < policy.hysteresis
                or self._streaks.cold[index + 1] < policy.hysteresis
            ):
                continue
            if not self._merge_allowed(index):
                continue
            pair_load = sum(
                loads[i] if i < len(loads) else 0.0 for i in (index, index + 1)
            )
            if coldest is None or pair_load < coldest_load:
                coldest, coldest_load = index, pair_load
        if coldest is not None:
            return ("merge", coldest)
        return None


class ReshardCoordinator:
    """The crawl's journal: places every record, moves segments on a handoff.

    ``opener`` maps a segment id to a fresh :class:`EventJournal`; a crawler
    given one instruments through :meth:`facade`, which makes this object
    the journal of every facade the crawl hands out, so a record lands in
    the right file whoever emits it.  The
    placement rule, stated once: a write about a node — it arrives with the
    node ID's bytes — goes to the live segment whose range owns that prefix,
    the file holding the node's dials, and any other to the first live
    segment.  The two records
    *about* segments are written here: every segment opens with the
    ``crawler`` record (each file names whose crawl it is) and a sealed one
    ends with ``reshard``.  Without an opener there are no segments: a
    handoff only changes the plan.  The OWNERSHIP lint allows only this
    class to seal a journal.
    """

    def __init__(
        self,
        plan: DynamicShardPlan,
        opener: Optional[Callable[[str], EventJournal]],
        clock: Callable[[], float],
        node_id: bytes,
        name: str,
    ) -> None:
        self.plan = plan
        self._opener = opener
        self._clock = clock
        self._identity = {"node_id": node_id.hex(), "name": name}
        #: each live range's open journal, keyed by the range's ``lo``
        self._segments: Dict[int, EventJournal] = {}
        for shard_range in plan.ranges:
            self._open(shard_range)

    def facade(self, telemetry: "Telemetry") -> "Telemetry":
        """``telemetry`` journaling through this coordinator on its clock —
        the crawl-wide facade every other facade of the crawl derives from
        — or ``telemetry`` as it came when there are no segments."""
        if self._opener is None:
            return telemetry
        return telemetry.with_journal(self, self._clock)

    def _open(self, shard_range: ShardRange) -> None:
        if self._opener is not None:
            journal = self._opener(shard_range.segment)
            journal.emit(Event("crawler", self._clock(), self._identity))
            self._segments[shard_range.lo] = journal

    def write_lines(
        self, text: str, records: int = 1, node_id: Optional[bytes] = None
    ) -> None:
        index = 0 if node_id is None else self.plan.shard_of(node_id)
        self._segments[self.plan.ranges[index].lo].write_lines(text, records)

    def handoff(self, action: str, index: int, *, step: int) -> Sequence[ShardRange]:
        """Apply one plan change and move the journal segments with it.

        The caller has already quiesced the dials of the range(s) being
        replaced.  In order: mutate the plan; write the ``reshard`` record
        as each parent segment's final event — the sealed file says where
        its range went and replay sees the handoff exactly where the dial
        stream stops; seal the parent; open each child's
        generation-suffixed segment.  Returns the child ranges.
        """
        parents: Sequence[ShardRange]
        children: Sequence[ShardRange]
        if action == "split":
            parent, children = self.plan.split(index)
            parents = (parent,)
        else:
            parents, child = self.plan.merge(index)
            children = (child,)
        for parent in parents:
            journal = self._segments.pop(parent.lo, None)
            if journal is not None:
                journal.emit(
                    Event(
                        "reshard",
                        self._clock(),
                        {
                            "action": action,
                            "step": step,
                            "generation": self.plan.generation,
                            "parent": [parent.lo, parent.hi],
                            "children": [[child.lo, child.hi] for child in children],
                        },
                    )
                )
                journal.seal()
        for child in children:
            self._open(child)
        return children

    def close(self) -> None:
        """Close every still-open segment (crawl shutdown); sealed ones are
        closed already."""
        for journal in self._segments.values():
            journal.close()
        self._segments.clear()


class SegmentFiles:
    """A crawl's journal files under one directory: the ``opener`` to give
    its crawler, every path opened so far, and a close-all.

    A segment journals to ``<stem>-shard<segment>.jsonl``; the only segment
    of a one-shard crawl that can never reshard is named plain
    ``<stem>.jsonl`` — decided here and nowhere else.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        stem: str,
        shards: int,
        reshard: Optional[ReshardPolicy],
    ) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._stem = stem
        self._single = shards <= 1 and reshard is None
        self.paths: List[Path] = []
        self._journals: List[EventJournal] = []

    def __call__(self, segment: str) -> EventJournal:
        suffix = "" if self._single else f"-shard{segment}"
        self.paths.append(self._directory / f"{self._stem}{suffix}.jsonl")
        self._journals.append(EventJournal.open(self.paths[-1]))
        return self._journals[-1]

    def close(self) -> None:
        """Close every journal opened (idempotent; sealed ones already are)."""
        for journal in self._journals:
            journal.close()
