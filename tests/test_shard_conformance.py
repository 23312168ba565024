"""Shard-conformance harness: N shards must equal the unsharded crawl.

The acceptance criterion for the sharded scheduler is not speed but
*provable equivalence* (coverage/bias measurements depend on how the
crawler partitions the ID space): the same seeded simnet world crawled
unsharded and with N∈{2,4} shards must produce

* entry-for-entry equal NodeDBs and day-for-day equal CrawlStats,
* byte-identical ``nodefinder analyze`` reports,
* per-shard journals whose dials stay inside the shard's keyspace slice
  (no target ever dialed by two shards), and
* a merged multi-shard journal replay that reconstructs the live NodeDB.

The same holds for a defended crawl under attack (``--adversary
--defenses``), where dial *order* matters — a /24's breaker trips on the
K-th failure in dial order: one NodeDB, one CrawlStats, one DefenseStats,
and segment journals carrying every crawl-scope record the unsharded
journal has.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ingest import replay_journals
from repro.cli import main
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.nodefinder.shard import PREFIX_SPACE, ShardPlan
from repro.simnet.adversary import AdversaryCampaign, AdversaryConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import read_events

from tests.helpers import assert_every_record_is_placed

SHARD_COUNTS = (1, 2, 4)
WORLD_SEED = 41
CRAWL_SEED = 7
DAYS = 1.0


def _crawl(shards: int, telemetry_dir, defended: bool = False) -> tuple:
    """One single-instance crawl of the canonical seeded world —
    ``defended``: half a day under the default Sybil campaign with the
    default defences on."""
    days = DAYS / 2 if defended else DAYS
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=100, measurement_days=days, seed=WORLD_SEED
            )
        )
    )
    config = NodeFinderConfig(seed=CRAWL_SEED, shards=shards)
    if defended:
        config.discovery_interval = 60.0
        config.defended = True
    fleet = run_fleet(
        world,
        instance_count=1,
        days=days,
        config=config,
        telemetry_dir=telemetry_dir,
        adversary=AdversaryCampaign(AdversaryConfig()) if defended else None,
    )
    return fleet, list(fleet.journal_paths)


def _crawl_at_every_shard_count(tmp_path_factory, defended: bool) -> dict:
    return {
        shards: _crawl(
            shards, tmp_path_factory.mktemp(f"shards{shards}"), defended
        )
        for shards in SHARD_COUNTS
    }


@pytest.fixture(scope="module")
def crawls(tmp_path_factory):
    """The same seeded world crawled at every shard count."""
    return _crawl_at_every_shard_count(tmp_path_factory, defended=False)


@pytest.fixture(scope="module")
def defended_crawls(tmp_path_factory):
    """The same attacked world crawled, defences on, at every shard count."""
    return _crawl_at_every_shard_count(tmp_path_factory, defended=True)


class TestShardPlan:
    @given(
        shards=st.integers(min_value=1, max_value=64),
        node_id=st.binary(min_size=64, max_size=64),
    )
    def test_shard_of_is_the_closed_form(self, shards, node_id):
        # the even ceil-division partition of the first two ID bytes
        prefix = int.from_bytes(node_id[:2], "big")
        assert ShardPlan(shards).shard_of(node_id) == prefix * shards // PREFIX_SPACE


class TestShardConformance:
    def test_crawl_is_nontrivial(self, crawls):
        fleet, journal_paths = crawls[1]
        [instance] = fleet.instances
        assert len(instance.db) > 20
        assert instance.writer.folds > 50
        assert len(journal_paths) == 1
        assert len(crawls[2][1]) == 2 and len(crawls[4][1]) == 4

    @pytest.mark.parametrize("shards", [2, 4])
    def test_nodedb_equal_entry_for_entry(self, crawls, shards):
        [baseline] = crawls[1][0].instances
        [sharded] = crawls[shards][0].instances
        assert len(sharded.db) == len(baseline.db)
        for entry in baseline.db:
            assert sharded.db.get(entry.node_id) == entry, entry.node_id.hex()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_stats_equal_day_for_day(self, crawls, shards):
        [baseline] = crawls[1][0].instances
        [sharded] = crawls[shards][0].instances
        assert set(sharded.stats.days) == set(baseline.stats.days)
        for day, counters in baseline.stats.days.items():
            assert sharded.stats.days[day] == counters, f"day {day}"

    def test_analyze_reports_byte_identical(self, crawls, capsys):
        reports = {}
        for shards, (_, journal_paths) in crawls.items():
            argv = ["analyze"]
            for path in journal_paths:
                argv += ["--journal", str(path)]
            assert main(argv) == 0
            reports[shards] = capsys.readouterr().out
        assert reports[2] == reports[1]
        assert reports[4] == reports[1]
        assert "Table 1" in reports[1] and "Table 3" in reports[1]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_no_target_dialed_by_two_shards(self, crawls, shards):
        _, journal_paths = crawls[shards]
        plan = ShardPlan(shards)
        dialed_by_shard = []
        for index, path in enumerate(sorted(journal_paths)):
            dialed = {
                bytes.fromhex(event.fields["node_id"])
                for event in read_events(path)
                if event.type == "dial"
            }
            # every dial stays inside the shard's keyspace slice...
            for node_id in dialed:
                assert plan.shard_of(node_id) == index, (
                    f"shard {index} dialed prefix {node_id[:2].hex()}"
                )
            dialed_by_shard.append(dialed)
        # ...so no node id appears in two shard journals
        for left in range(len(dialed_by_shard)):
            for right in range(left + 1, len(dialed_by_shard)):
                assert not (dialed_by_shard[left] & dialed_by_shard[right])
        assert sum(len(dialed) for dialed in dialed_by_shard) > 20

    def test_every_record_type_is_in_the_file_the_one_rule_names(self, crawls):
        # the dial check above, for every record and from the files alone
        for shards in SHARD_COUNTS:
            seen = assert_every_record_is_placed(crawls[shards][1])
            assert seen["crawler"] == shards
            assert min(seen[kind] for kind in ("dial", "hello", "status", "dao")) > 20

    @pytest.mark.parametrize("shards", [2, 4])
    def test_merged_replay_reconstructs_live_db(self, crawls, shards):
        fleet, journal_paths = crawls[shards]
        [instance] = fleet.instances
        replayed = replay_journals(journal_paths)
        assert not replayed.skipped
        assert len(replayed.db) == len(instance.db)
        for entry in instance.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()


@pytest.mark.parametrize("shards", [2, 4])
class TestDefendedShardConformance:
    """Under attack with the defences on, the crawl depends on dial order
    (the subnet breaker) — and must still not depend on the shard count."""

    def test_nodedb_stats_and_defense_stats_equal(self, defended_crawls, shards):
        [baseline] = defended_crawls[1][0].instances
        [sharded] = defended_crawls[shards][0].instances
        assert baseline.defense_snapshot().subnet_breaker_trips > 0
        assert list(sharded.db) == list(baseline.db)
        assert sharded.stats.days == baseline.stats.days
        assert sharded.defense_snapshot() == baseline.defense_snapshot()

    def test_segment_journals_carry_the_crawl_scope_records(
        self, defended_crawls, shards
    ):
        counts = {
            n: Counter(
                event.type
                for path in defended_crawls[n][1]
                for event in read_events(path)
            )
            for n in (1, shards)
        }
        assert counts[1]["breaker"] > 0 and counts[1]["table_admission"] > 0
        assert counts[shards].pop("crawler") == shards  # one per file
        assert counts[1].pop("crawler") == 1
        assert counts[shards] == counts[1]
        # ...each where the rule puts it: per-peer breakers and admission
        # refusals with the node's dials, subnet breakers (no node) in the
        # first segment
        seen = assert_every_record_is_placed(defended_crawls[shards][1])
        assert seen == counts[shards] + Counter(crawler=shards)
        first = read_events(sorted(defended_crawls[shards][1])[0])
        assert sum(e.fields.get("scope") == "subnet" for e in first) > 0
        baseline = replay_journals(defended_crawls[1][1])
        replayed = replay_journals(defended_crawls[shards][1])
        assert replayed.admission_rejections == baseline.admission_rejections
        assert replayed.subnet_breaker_trips == baseline.subnet_breaker_trips
        assert sum(baseline.subnet_breaker_trips.values()) > 0


# -- merged-replay properties -------------------------------------------------


@pytest.fixture(scope="module")
def shard4(crawls):
    """The 4-shard journals as line lists, plus their canonical replay."""
    _, journal_paths = crawls[4]
    lines = [
        Path(path).read_text().splitlines() for path in sorted(journal_paths)
    ]
    return lines, replay_journals(lines)


class TestMultiShardReplayProperties:
    """Replay over interleaved shard journals is damage- and order-proof.

    Operators hand ``analyze`` whatever shard files they find, in
    whatever order ``glob`` yields them, sometimes with a file listed
    twice or a tail torn by a crash — none of that may raise, and pure
    reorderings must reconstruct the exact same NodeDB.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_shard_order_reconstructs_same_nodedb(self, shard4, seed):
        lines, baseline = shard4
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        replayed = replay_journals(shuffled)
        assert not replayed.skipped
        assert len(replayed.db) == len(baseline.db)
        for entry in baseline.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cut=st.integers(min_value=1, max_value=120),
    )
    def test_duplicated_and_torn_shard_files_never_raise(
        self, shard4, seed, cut
    ):
        lines, baseline = shard4
        rng = random.Random(seed)
        copies = [list(shard) for shard in lines]
        # one shard file appears twice, and the duplicate's tail is torn
        # mid-record — the originals still carry every event once
        duplicate = list(rng.choice(copies))
        duplicate[-1] = duplicate[-1][: max(0, len(duplicate[-1]) - cut)]
        copies.append(duplicate)
        rng.shuffle(copies)
        replayed = replay_journals(copies)  # must not raise
        assert {entry.node_id for entry in replayed.db} == {
            entry.node_id for entry in baseline.db
        }
