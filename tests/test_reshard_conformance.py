"""Reshard-conformance harness: a crawl that reshards must equal one that never does.

Elastic sharding (split a hot shard, merge cold siblings mid-crawl) is
only admissible if it is *invisible to the measurement*: the paper's
tables are derived from the crawl journal, so a reshard that changed
which nodes get dialed — or when — would silently bias every figure.
The acceptance criterion is therefore equivalence, pinned three ways
against the same seeded simnet world:

* a static N-shard crawl, a crawl that splits at step k, and a crawl
  that splits then merges back must produce entry-for-entry equal
  NodeDBs, day-for-day equal CrawlStats, and byte-identical
  ``nodefinder analyze`` reports;
* the generation-suffixed journal segments (``shard<k>.g<gen>``) merged
  back through ``replay_journals`` must reconstruct the live NodeDB and
  surface the ``reshard`` handoff records exactly once per generation;
* Hypothesis drives random split/merge schedules (infeasible ops are
  skipped, never raised), shuffled/duplicated generation files, and
  torn tails *during* the handoff — inside the sealed parent segment
  (its final line is the ``reshard`` record) and inside a child's first
  batch — none of which may raise.

A ``benchmark``-marked test pins the point of the machinery: after the
controller automatically splits a deliberately skewed world's hot
shard, crawl throughput recovers by >= 1.3x over the static plan.
"""

from __future__ import annotations

import asyncio
import io
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ingest import replay_journals
from repro.cli import main
from repro.discovery.enode import ENode
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.live import LiveConfig, LiveNodeFinder
from repro.nodefinder.reshard import (
    DynamicShardPlan,
    ReshardController,
    ReshardError,
    ReshardOp,
    ReshardPolicy,
)
from repro.nodefinder.scanner import NodeFinderConfig
from repro.nodefinder.shard import PREFIX_SPACE
from repro.nodefinder.records import DialOutcome, DialResult
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import Event, EventJournal, JournalError, read_events

from tests.helpers import assert_every_record_is_placed

WORLD_SEED = 41
CRAWL_SEED = 7
DAYS = 1.0

#: the three crawls whose equivalence is the acceptance criterion
SCHEDULES = {
    "static": None,
    "split": (ReshardOp(step=3, action="split", index=0),),
    "splitmerge": (
        ReshardOp(step=3, action="split", index=0),
        ReshardOp(step=6, action="merge", index=0),
    ),
}


def _world(nodes: int = 100, days: float = DAYS) -> SimWorld:
    return SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=nodes, measurement_days=days, seed=WORLD_SEED
            )
        )
    )


def _crawl(schedule, telemetry_dir) -> tuple:
    policy = None
    if schedule is not None:
        policy = ReshardPolicy(schedule=schedule, max_shards=4)
    fleet = run_fleet(
        _world(),
        instance_count=1,
        days=DAYS,
        config=NodeFinderConfig(
            seed=CRAWL_SEED, shards=2, discovery_interval=200, reshard=policy
        ),
        telemetry_dir=telemetry_dir,
    )
    return fleet, sorted(fleet.journal_paths)


@pytest.fixture(scope="module")
def crawls(tmp_path_factory):
    """The same seeded world crawled static, split-at-k, split-then-merge."""
    return {
        variant: _crawl(schedule, tmp_path_factory.mktemp(variant))
        for variant, schedule in SCHEDULES.items()
    }


class TestReshardConformance:
    def test_crawl_is_nontrivial(self, crawls):
        fleet, journal_paths = crawls["static"]
        [instance] = fleet.instances
        assert len(instance.db) > 100
        assert len(journal_paths) == 2

    def test_generation_suffixed_journal_names(self, crawls):
        # the split seals shard 0's generation-0 segment and opens two
        # generation-1 children; the merge then seals both children and
        # opens one generation-2 segment over the reunited range
        split_names = {path.name for path in crawls["split"][1]}
        assert split_names == {
            "nodefinder-0-shard0.g0.jsonl",
            "nodefinder-0-shard0.g1.jsonl",
            "nodefinder-0-shard1.g1.jsonl",
            "nodefinder-0-shard1.g0.jsonl",
        }
        merge_names = {path.name for path in crawls["splitmerge"][1]}
        assert merge_names == split_names | {"nodefinder-0-shard0.g2.jsonl"}

    @pytest.mark.parametrize("variant", ["split", "splitmerge"])
    def test_nodedb_equal_entry_for_entry(self, crawls, variant):
        [baseline] = crawls["static"][0].instances
        [elastic] = crawls[variant][0].instances
        assert len(elastic.db) == len(baseline.db)
        for entry in baseline.db:
            assert elastic.db.get(entry.node_id) == entry, entry.node_id.hex()

    @pytest.mark.parametrize("variant", ["split", "splitmerge"])
    def test_stats_equal_day_for_day(self, crawls, variant):
        [baseline] = crawls["static"][0].instances
        [elastic] = crawls[variant][0].instances
        assert set(elastic.stats.days) == set(baseline.stats.days)
        for day, counters in baseline.stats.days.items():
            assert elastic.stats.days[day] == counters, f"day {day}"

    def test_analyze_reports_byte_identical(self, crawls, capsys):
        reports = {}
        for variant, (_, journal_paths) in crawls.items():
            argv = ["analyze"]
            for path in journal_paths:
                argv += ["--journal", str(path)]
            assert main(argv) == 0
            reports[variant] = capsys.readouterr().out
        assert reports["split"] == reports["static"]
        assert reports["splitmerge"] == reports["static"]
        assert "Table 1" in reports["static"]

    def test_sealed_parent_ends_with_reshard_record(self, crawls):
        _, journal_paths = crawls["split"]
        [parent] = [p for p in journal_paths if p.name.endswith("shard0.g0.jsonl")]
        events = read_events(parent)
        assert events[-1].type == "reshard"
        assert events[-1].fields["action"] == "split"
        assert events[-1].fields["generation"] == 1
        assert events[-1].fields["parent"] == [0, PREFIX_SPACE // 2]
        assert events[-1].fields["children"] == [
            [0, PREFIX_SPACE // 4],
            [PREFIX_SPACE // 4, PREFIX_SPACE // 2],
        ]

    @pytest.mark.parametrize("variant", ["static", "split", "splitmerge"])
    def test_every_record_type_is_in_the_file_the_one_rule_names(self, crawls, variant):
        # crawler first in every file, reshard last in every sealed parent,
        # each node's records in the segment owning its prefix at the time
        seen = assert_every_record_is_placed(crawls[variant][1])
        assert seen["crawler"] == len(crawls[variant][1])
        assert seen["reshard"] == {"static": 0, "split": 1, "splitmerge": 3}[variant]
        assert sum(seen.values()) - seen["crawler"] - seen["reshard"] == sum(
            count
            for kind, count in assert_every_record_is_placed(crawls["static"][1]).items()
            if kind != "crawler"
        )

    @pytest.mark.parametrize("variant", ["split", "splitmerge"])
    def test_merged_replay_reconstructs_live_db(self, crawls, variant):
        fleet, journal_paths = crawls[variant]
        [instance] = fleet.instances
        replayed = replay_journals(journal_paths)
        assert not replayed.skipped
        assert len(replayed.db) == len(instance.db)
        for entry in instance.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    def test_replay_surfaces_reshard_records_once_per_generation(self, crawls):
        replayed = replay_journals(crawls["splitmerge"][1])
        assert replayed.reshard_generations == {1, 2}
        assert [row["action"] for row in replayed.reshards] == ["split", "merge"]
        split, merge = replayed.reshards
        assert split["step"] == 3 and merge["step"] == 6
        assert split["parent"] == [0, PREFIX_SPACE // 2]
        assert merge["children"] == [[0, PREFIX_SPACE // 2]]
        # a shard file listed twice must not double-report the handoff
        doubled = replay_journals(list(crawls["splitmerge"][1]) * 2)
        assert len(doubled.reshards) == 2


# -- plan and journal-seal semantics ------------------------------------------


_NODE_IDS = st.binary(min_size=64, max_size=64)


def _linear_scan(plan: DynamicShardPlan, node_id: bytes) -> int:
    prefix = int.from_bytes(node_id[:2], "big")
    [index] = [
        index
        for index, shard_range in enumerate(plan.ranges)
        if shard_range.lo <= prefix < shard_range.hi
    ]
    return index


class TestDynamicShardPlan:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
    def test_generation_zero_matches_static_plan(self, shards):
        # generation 0 is the even ceil-division partition of the keyspace
        plan = DynamicShardPlan(shards)
        assert plan.shards == shards
        for index in range(shards):
            assert plan.prefix_range(index) == (
                -(-index * PREFIX_SPACE // shards),
                -(-(index + 1) * PREFIX_SPACE // shards),
            )

    @given(shards=st.integers(min_value=1, max_value=64), node_id=_NODE_IDS)
    def test_generation_zero_routes_by_the_closed_form(self, shards, node_id):
        prefix = int.from_bytes(node_id[:2], "big")
        assert DynamicShardPlan(shards).shard_of(node_id) == (
            prefix * shards // PREFIX_SPACE
        )

    @given(
        shards=st.integers(min_value=1, max_value=8),
        ops=st.lists(
            st.tuples(st.sampled_from(["split", "merge"]), st.integers(0, 15)),
            max_size=12,
        ),
        node_ids=st.lists(_NODE_IDS, min_size=1, max_size=8),
    )
    def test_shard_of_tracks_the_ranges_through_any_op_sequence(
        self, shards, ops, node_ids
    ):
        # shard_of bisects bounds cached at construction and refreshed by
        # split/merge: after every feasible op it must still agree with a
        # linear scan of the ranges themselves
        plan = DynamicShardPlan(shards)
        for action, index in ops:
            if action == "split" and plan.can_split(index):
                plan.split(index)
            elif action == "merge" and plan.can_merge(index):
                plan.merge(index)
            else:
                continue
            for node_id in node_ids:
                assert plan.shard_of(node_id) == _linear_scan(plan, node_id)

    def test_split_and_merge_mint_generation_suffixed_segments(self):
        plan = DynamicShardPlan(2)
        assert [r.segment for r in plan.ranges] == ["0.g0", "1.g0"]
        parent, (left, right) = plan.split(0)
        assert parent.segment == "0.g0"
        assert (left.segment, right.segment) == ("0.g1", "1.g1")
        assert (left.lo, left.hi, right.lo, right.hi) == (0, 16384, 16384, 32768)
        assert [r.segment for r in plan.ranges] == ["0.g1", "1.g1", "1.g0"]
        (left, right), child = plan.merge(1)
        assert (left.segment, right.segment) == ("1.g1", "1.g0")
        assert child.segment == "1.g2"
        assert [r.segment for r in plan.ranges] == ["0.g1", "1.g2"]
        assert [(r.lo, r.hi) for r in plan.ranges] == [(0, 16384), (16384, 65536)]

    def test_infeasible_ops_raise_reshard_error(self):
        plan = DynamicShardPlan(1)
        with pytest.raises(ReshardError):
            plan.merge(0)  # no right sibling
        narrow = DynamicShardPlan(1)
        while narrow.ranges[0].width > 1:  # split shard 0 down to width 1
            narrow.split(0)
        with pytest.raises(ReshardError):
            narrow.split(0)


class TestControllerSameStepOps:
    """Several scripted ops can share a step, and the crawler applies
    them sequentially — so each returned op must be feasible against the
    plan *as mutated by its predecessors*.  Regression: a second
    same-step ``merge 0`` at 2 shards used to pass validation against
    the pre-mutation plan and raise :class:`ReshardError` (or IndexError
    in the scanner's handoff) at apply time, crashing the crawl tick.
    """

    @staticmethod
    def _apply(plan: DynamicShardPlan, ops) -> None:
        for action, index in ops:
            if action == "split":
                plan.split(index)
            else:
                plan.merge(index)

    def test_second_same_step_merge_is_skipped(self):
        plan = DynamicShardPlan(2)
        controller = ReshardController(
            ReshardPolicy(
                schedule=(
                    ReshardOp(step=0, action="merge", index=0),
                    ReshardOp(step=0, action="merge", index=0),
                )
            ),
            plan,
        )
        ops = controller.observe([0.0, 0.0])
        assert ops == [("merge", 0)]
        self._apply(plan, ops)  # must not raise
        assert plan.shards == 1

    def test_same_step_splits_respect_max_shards(self):
        plan = DynamicShardPlan(2)
        controller = ReshardController(
            ReshardPolicy(
                max_shards=3,
                schedule=tuple(
                    ReshardOp(step=0, action="split", index=0) for _ in range(3)
                ),
            ),
            plan,
        )
        ops = controller.observe([0.0, 0.0])
        assert ops == [("split", 0)]
        self._apply(plan, ops)
        assert plan.shards == 3

    def test_feasible_same_step_sequence_applies_cleanly(self):
        # a split + split + merge chain over shifting indices: every op
        # is feasible at its apply point, so all three come back
        plan = DynamicShardPlan(2)
        controller = ReshardController(
            ReshardPolicy(
                max_shards=4,
                schedule=(
                    ReshardOp(step=0, action="split", index=0),
                    ReshardOp(step=0, action="split", index=2),
                    ReshardOp(step=0, action="merge", index=1),
                ),
            ),
            plan,
        )
        ops = controller.observe([0.0, 0.0])
        assert ops == [("split", 0), ("split", 2), ("merge", 1)]
        self._apply(plan, ops)  # must not raise
        assert plan.shards == 3

    def test_duplicate_same_step_ops_crawl_survives(
        self, small_static, tmp_path_factory
    ):
        # end-to-end: the simnet tick applies the controller's ops; a
        # schedule with an infeasible duplicate must not crash the crawl
        policy = ReshardPolicy(
            schedule=(
                ReshardOp(step=1, action="merge", index=0),
                ReshardOp(step=1, action="merge", index=0),
            )
        )
        fleet, _ = _small_crawl(policy, tmp_path_factory.mktemp("dup-ops"))
        [baseline] = small_static[0].instances
        [elastic] = fleet.instances
        assert len(elastic.db) == len(baseline.db)


class TestJournalSeal:
    def test_sealed_segment_refuses_further_events(self):
        journal = EventJournal(io.StringIO())
        journal.emit(Event(type="dial", ts=1.0))
        journal.seal()
        assert journal.sealed
        with pytest.raises(JournalError, match="sealed"):
            journal.emit(Event(type="dial", ts=2.0))

    def test_close_is_idempotent_after_seal(self, tmp_path):
        journal = EventJournal.open(tmp_path / "seg.jsonl")
        journal.emit(Event(type="dial", ts=1.0))
        journal.seal()
        journal.close()  # the crawl's shutdown sweep closes everything
        journal.close()
        assert read_events(tmp_path / "seg.jsonl")[0].type == "dial"


# -- random split/merge schedules ---------------------------------------------


def _small_crawl(policy, telemetry_dir):
    """A fast elastic crawl for property examples (~0.2s per run)."""
    fleet = run_fleet(
        SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=30, measurement_days=0.25, seed=WORLD_SEED
                )
            )
        ),
        instance_count=1,
        days=0.25,
        config=NodeFinderConfig(
            seed=CRAWL_SEED, shards=2, discovery_interval=400, reshard=policy
        ),
        telemetry_dir=telemetry_dir,
    )
    return fleet, sorted(fleet.journal_paths)


@pytest.fixture(scope="module")
def small_static(tmp_path_factory):
    return _small_crawl(None, tmp_path_factory.mktemp("small-static"))


_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["split", "merge"]),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=4,
)


class TestRandomScheduleProperties:
    """Any schedule of split/merge ops leaves the measurement unchanged.

    Ops that are infeasible when their step arrives (index out of range,
    width-1 shard, shard-count bounds) are skipped by the controller —
    operators scripting a reshard must never be able to corrupt a crawl,
    only to fail to change its layout.
    """

    @settings(max_examples=10, deadline=None)
    @given(ops=_OPS)
    def test_scheduled_crawl_equals_static(self, small_static, tmp_path_factory, ops):
        policy = ReshardPolicy(
            schedule=tuple(ReshardOp(step, action, index) for step, action, index in ops),
            max_shards=6,
        )
        fleet, journal_paths = _small_crawl(policy, tmp_path_factory.mktemp("sched"))
        [baseline] = small_static[0].instances
        [elastic] = fleet.instances
        assert len(elastic.db) == len(baseline.db)
        for entry in baseline.db:
            assert elastic.db.get(entry.node_id) == entry, entry.node_id.hex()
        replayed = replay_journals(journal_paths)
        assert not replayed.skipped
        assert len(replayed.db) == len(elastic.db)
        for entry in elastic.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()


# -- damage-proof replay over generation files --------------------------------


@pytest.fixture(scope="module")
def splitmerge_lines(crawls):
    """The split-then-merge journals as line lists, plus their replay."""
    _, journal_paths = crawls["splitmerge"]
    lines = [Path(path).read_text().splitlines() for path in journal_paths]
    return lines, replay_journals(lines)


class TestGenerationFileProperties:
    """Replay over generation-suffixed segments is damage- and order-proof.

    Operators hand ``analyze`` whatever segment files they find — in glob
    order, sometimes a file twice, sometimes a tail torn by a crash that
    landed *during* a handoff. None of that may raise.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_generation_order_reconstructs_same_nodedb(
        self, splitmerge_lines, seed
    ):
        lines, baseline = splitmerge_lines
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        replayed = replay_journals(shuffled)
        assert not replayed.skipped
        assert replayed.reshard_generations == baseline.reshard_generations
        assert len(replayed.db) == len(baseline.db)
        for entry in baseline.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cut=st.integers(min_value=1, max_value=120),
    )
    def test_duplicated_and_torn_generation_files_never_raise(
        self, splitmerge_lines, seed, cut
    ):
        lines, baseline = splitmerge_lines
        rng = random.Random(seed)
        copies = [list(segment) for segment in lines]
        duplicate = list(rng.choice(copies))
        duplicate[-1] = duplicate[-1][: max(0, len(duplicate[-1]) - cut)]
        copies.append(duplicate)
        rng.shuffle(copies)
        replayed = replay_journals(copies)  # must not raise
        assert {entry.node_id for entry in replayed.db} == {
            entry.node_id for entry in baseline.db
        }

    @settings(max_examples=20, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=200))
    def test_torn_tail_inside_sealed_parent_segment(self, crawls, cut):
        """A crash can tear the parent's final line — the reshard record
        itself.  Replay must still reconstruct every dial (the record is
        a crawl-scope no-op); only the handoff metadata may be lost."""
        fleet, journal_paths = crawls["split"]
        [instance] = fleet.instances
        torn = []
        for path in journal_paths:
            segment = Path(path).read_text().splitlines()
            if path.name.endswith("shard0.g0.jsonl"):
                segment[-1] = segment[-1][: max(0, len(segment[-1]) - cut)]
            torn.append(segment)
        replayed = replay_journals(torn)  # must not raise
        assert len(replayed.db) == len(instance.db)
        for entry in instance.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    @settings(max_examples=20, deadline=None)
    @given(
        keep=st.integers(min_value=1, max_value=30),
        cut=st.integers(min_value=1, max_value=120),
    )
    def test_torn_tail_inside_child_first_batch(self, crawls, keep, cut):
        """A crash right after the handoff tears a child segment inside
        its first batch of records; the truncated child must replay
        without raising and without losing any *other* segment's dials."""
        _, journal_paths = crawls["split"]
        torn = []
        for path in journal_paths:
            segment = Path(path).read_text().splitlines()
            if path.name.endswith("shard0.g1.jsonl"):
                segment = segment[:keep]
                segment[-1] = segment[-1][: max(0, len(segment[-1]) - cut)]
            torn.append(segment)
        replayed = replay_journals(torn)  # must not raise
        intact = replay_journals(
            [seg for path, seg in zip(journal_paths, torn) if "g1" not in path.name]
        )
        for entry in intact.db:
            assert replayed.db.get(entry.node_id) is not None, entry.node_id.hex()


# -- throughput recovery after an automatic split -----------------------------


def _stub_harvester(dial_seconds: float):
    """A harvest-compatible stub: fixed-latency full harvest, no sockets."""

    async def stub(target, key, connection_type="dynamic-dial", **kwargs):
        await asyncio.sleep(dial_seconds)
        clock = kwargs.get("clock") or time.monotonic
        return DialResult(
            timestamp=clock(),
            node_id=target.node_id,
            ip=target.ip,
            tcp_port=target.tcp_port,
            connection_type=connection_type,
            outcome=DialOutcome.FULL_HARVEST,
            client_id="Geth/v1.8.11-stable/linux-amd64/go1.10.2",
            network_id=1,
        )

    return stub


def _skewed_targets(count: int) -> list[ENode]:
    """Every target's prefix lands in shard 0 of a 2-shard plan."""
    rng = random.Random(1234)
    targets = []
    for _ in range(count):
        prefix = rng.randrange(0, PREFIX_SPACE // 2)
        node_id = prefix.to_bytes(2, "big") + rng.randbytes(62)
        targets.append(ENode(node_id, "127.0.0.1", 30303, 30303))
    return targets


async def _drain_until(db, count: int, deadline: float) -> float:
    started = time.monotonic()
    while len(db) < count:
        if time.monotonic() - started > deadline:
            raise AssertionError(
                f"only {len(db)}/{count} targets dialed before the deadline"
            )
        await asyncio.sleep(0.005)
    return time.monotonic() - started


@pytest.mark.benchmark
class TestReshardThroughputRecovery:
    """The controller's automatic split recovers >= 1.3x throughput on a
    deliberately skewed world (every target in one shard's range).

    Journal replay is deliberately not asserted here: the stub harvester
    bypasses ``wire.harvest``, which is where dial events are journaled
    on the live path — the simnet fixtures above pin replay.
    """

    TARGETS = 120
    DIAL_SECONDS = 0.01

    def _config(self, policy: ReshardPolicy | None) -> LiveConfig:
        return LiveConfig(
            shards=2,
            max_active_dials=1,
            shard_batch=4,
            static_dial_interval=3600.0,
            lookup_interval=3600.0,
            retry=None,
            reshard=policy,
        )

    async def _run(self, policy: ReshardPolicy | None) -> float:
        finder = LiveNodeFinder(
            config=self._config(policy),
            harvester=_stub_harvester(self.DIAL_SECONDS),
        )
        await finder.start([])
        try:
            for enode in _skewed_targets(self.TARGETS):
                shard = finder._shards[finder.plan.shard_of(enode.node_id)]
                shard.queue.put_nowait(enode)
            return await _drain_until(finder.db, self.TARGETS, 60.0)
        finally:
            await finder.stop()

    def test_automatic_split_recovers_throughput(self):
        policy = ReshardPolicy(
            max_shards=4,
            split_load=8.0,
            merge_load=-1.0,  # a drained queue is not "cold": never merge
            hysteresis=2,
            cooldown=0.15,
            interval=0.05,
        )
        baseline = asyncio.run(self._run(None))
        elastic = asyncio.run(self._run(policy))
        recovery = baseline / elastic
        assert recovery >= 1.3, (
            f"automatic split only recovered {recovery:.2f}x "
            f"({baseline:.3f}s static vs {elastic:.3f}s elastic)"
        )
