"""NodeFinder crawler tests: scheduling, database, stats, sanitisation."""

import copy
import random
import zlib

import pytest

from repro.crypto import keccak
from repro.crypto.keccak import keccak256
from repro.nodefinder import scanner
from repro.nodefinder.database import NodeDB
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.records import CrawlStats
from repro.nodefinder.sanitize import (
    MAX_GENERATION_INTERVAL,
    SHORT_LIVED_SPAN,
    find_abusive,
    sanitize,
)
from repro.nodefinder.scanner import (
    TICK_PLAN_BLOCK,
    NodeFinderConfig,
    NodeFinderInstance,
    TickPlan,
)
from repro.units import SECONDS_PER_DAY
from repro.nodefinder.records import DialOutcome, DialResult
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig


def make_result(node_id=b"\x01" * 64, **overrides) -> DialResult:
    values = dict(
        timestamp=100.0,
        node_id=node_id,
        ip="10.0.0.1",
        tcp_port=30303,
        connection_type="dynamic-dial",
        outcome=DialOutcome.FULL_HARVEST,
        latency=0.05,
        duration=0.2,
        client_id="Geth/v1.8.8-stable-abc/linux-amd64/go1.10",
        capabilities=[("eth", 62), ("eth", 63)],
        listen_port=30303,
        network_id=1,
        genesis_hash=bytes.fromhex(
            "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3"
        ),
        total_difficulty=10**21,
        best_hash=b"\xaa" * 32,
        best_block=5_400_000,
        dao_side="supports",
    )
    values.update(overrides)
    return DialResult(**values)


class TestNodeDB:
    def test_observe_creates_entry(self):
        db = NodeDB()
        entry = db.observe(make_result())
        assert entry.got_hello and entry.got_status
        assert entry.is_mainnet
        assert len(db) == 1

    def test_timeout_does_not_extend_active_span(self):
        db = NodeDB()
        db.observe(make_result(timestamp=100.0))
        db.observe(
            make_result(
                timestamp=90_000.0,
                outcome=DialOutcome.TIMEOUT,
                client_id=None,
                capabilities=None,
                listen_port=None,
                network_id=None,
                genesis_hash=None,
                total_difficulty=None,
                best_hash=None,
                best_block=None,
                dao_side=None,
            )
        )
        entry = db.get(b"\x01" * 64)
        assert entry.active_span == 0.0
        assert entry.last_attempt == 90_000.0

    def test_classic_node_not_mainnet(self):
        db = NodeDB()
        entry = db.observe(make_result(dao_side="opposes"))
        assert not entry.is_mainnet

    def test_wrong_genesis_not_mainnet(self):
        db = NodeDB()
        entry = db.observe(make_result(genesis_hash=b"\x01" * 32))
        assert not entry.is_mainnet

    def test_multiple_ips_accumulate(self):
        db = NodeDB()
        db.observe(make_result(ip="10.0.0.1"))
        db.observe(make_result(ip="10.0.0.2", timestamp=200.0))
        assert db.get(b"\x01" * 64).ips == {"10.0.0.1", "10.0.0.2"}

    def test_merge_unions_info(self):
        a, b = NodeDB(), NodeDB()
        a.observe(make_result(timestamp=100.0, ip="10.0.0.1"))
        b.observe(make_result(timestamp=500.0, ip="10.0.0.2", client_id="Parity/v1.10.6-stable/x86_64-linux-gnu/rustc1.26.0"))
        a.merge(b)
        entry = a.get(b"\x01" * 64)
        assert entry.ips == {"10.0.0.1", "10.0.0.2"}
        assert entry.sessions == 2
        assert "Parity" in entry.client_id  # newer sighting wins

    def test_jsonl_roundtrip(self, tmp_path):
        db = NodeDB()
        db.observe(make_result())
        db.observe(make_result(node_id=b"\x02" * 64, network_id=3, dao_side=None))
        path = str(tmp_path / "nodes.jsonl")
        assert db.dump_jsonl(path) == 2
        loaded = NodeDB.load_jsonl(path)
        assert len(loaded) == 2
        entry = loaded.get(b"\x01" * 64)
        assert entry.network_id == 1
        assert entry.is_mainnet

    def test_primary_service(self):
        db = NodeDB()
        entry = db.observe(make_result(capabilities=[("bzz", 0)]))
        assert entry.primary_service() == "bzz"
        entry = db.observe(make_result(node_id=b"\x03" * 64, capabilities=[("shh", 6), ("eth", 63)]))
        assert entry.primary_service() == "eth"

    def test_a_merge_of_one_database_shares_its_entries(self):
        db = NodeDB()
        entry = db.observe(make_result())
        assert NodeDB.merged([db]).get(entry.node_id) is entry


class TestMergedDatabase:
    """``NodeDB.merged`` reads the instance databases and writes to none."""

    @pytest.fixture(scope="class")
    def fleet(self):
        population = PopulationConfig(total_nodes=300, seed=2018, measurement_days=1.0)
        world = SimWorld(WorldConfig(population=population, seed=7))
        return run_fleet(world, instance_count=2, days=0.1)

    def test_two_merges_are_equal_and_leave_every_instance_unchanged(self, fleet):
        before = [copy.deepcopy(list(instance.db)) for instance in fleet.instances]
        first, second = fleet.merged_db, fleet.merged_db
        assert len(first) == len(second)
        assert all(second.get(entry.node_id) == entry for entry in first)
        assert sum(entry.sessions for entry in first) == sum(
            entry.sessions for entries in before for entry in entries
        )
        assert [list(instance.db) for instance in fleet.instances] == before


class TestCrawlStats:
    def test_record_dial_classification(self):
        stats = CrawlStats()
        stats.record_dial(0, make_result())
        stats.record_dial(0, make_result(node_id=b"\x02" * 64, outcome=DialOutcome.TIMEOUT,
                                         client_id=None, network_id=None, dao_side=None,
                                         capabilities=None, listen_port=None,
                                         genesis_hash=None, total_difficulty=None,
                                         best_hash=None, best_block=None))
        day = stats.days[0]
        assert day.dynamic_dial_attempts == 2
        assert len(day.nodes_dialed) == 2
        assert len(day.nodes_responded) == 1

    def test_bootstrap_watch(self):
        stats = CrawlStats()
        stats.watch_bootstrap(b"\x01" * 64)
        stats.record_dial(0, make_result(connection_type="static-dial"))
        stats.record_dial(1, make_result(connection_type="dynamic-dial"))
        assert stats.bootstrap_series() == [(0, 0, 1), (1, 1, 0)]

    def test_merge(self):
        a, b = CrawlStats(), CrawlStats()
        a.record_discovery(0)
        b.record_discovery(0, lookups=2)
        a.merge(b)
        assert a.days[0].discovery_attempts == 3

    def test_daily_average_skips_warmup(self):
        stats = CrawlStats()
        stats.record_discovery(0, lookups=100)
        stats.record_discovery(1, lookups=10)
        stats.record_discovery(2, lookups=20)
        assert stats.daily_average("discovery_attempts", skip_first=1) == 15


class TestSanitize:
    def _abusive_db(self) -> NodeDB:
        db = NodeDB()
        # 10 short-lived node IDs on one IP within one hour
        for index in range(10):
            db.observe(
                make_result(
                    node_id=bytes([index + 1]) * 64,
                    ip="66.66.66.66",
                    timestamp=1000.0 + index * 360,
                    connection_type="incoming",
                )
            )
        # a legit long-lived node
        db.observe(make_result(node_id=b"\xaa" * 64, ip="9.9.9.9", timestamp=0.0))
        db.observe(make_result(node_id=b"\xaa" * 64, ip="9.9.9.9", timestamp=SECONDS_PER_DAY))
        return db

    def test_five_step_filter(self):
        report = find_abusive(self._abusive_db())
        assert report.abusive_ips == {"66.66.66.66"}
        assert len(report.abusive_node_ids) == 10
        assert b"\xaa" * 64 not in report.abusive_node_ids

    def test_slow_ip_not_flagged(self):
        db = NodeDB()
        # 3 short-lived nodes spread over 3 days: rate far above 30 minutes
        for index in range(3):
            db.observe(
                make_result(
                    node_id=bytes([index + 1]) * 64,
                    ip="77.77.77.77",
                    timestamp=index * SECONDS_PER_DAY,
                )
            )
        assert find_abusive(db).abusive_ips == set()

    def test_below_min_nodes_not_flagged(self):
        db = NodeDB()
        for index in range(2):
            db.observe(
                make_result(
                    node_id=bytes([index + 1]) * 64,
                    ip="88.88.88.88",
                    timestamp=1000.0 + index,
                )
            )
        assert find_abusive(db).abusive_ips == set()

    def test_sanitize_removes_scanners_and_abusive(self):
        db = self._abusive_db()
        db.observe(
            make_result(
                node_id=b"\xbb" * 64,
                ip="5.5.5.5",
                client_id="Geth/v1.7.3-stable-nodefinder/linux-amd64/go1.9.2",
            )
        )
        cleaned, report = sanitize(db, own_node_ids=[b"\xcc" * 64])
        assert len(report.abusive_node_ids) == 10
        assert b"\xbb" * 64 in report.scanner_node_ids
        assert b"\xcc" * 64 in report.scanner_node_ids
        assert cleaned.get(b"\xbb" * 64) is None
        assert cleaned.get(b"\xaa" * 64) is not None

    def test_constants_match_paper(self):
        assert SHORT_LIVED_SPAN == 30 * 60
        assert MAX_GENERATION_INTERVAL == 30 * 60


class TestTickPlan:
    """The pre-drawn plan is the draw-as-you-go stream, value for value."""

    @pytest.mark.parametrize("vectorised", [True, False])
    def test_plan_is_the_interleaved_stream(self, monkeypatch, vectorised):
        """Blocks of at least ``_BATCH_CROSSOVER`` targets hash through the
        vectorised permutation; smaller ones go through per-message
        :func:`keccak256` inside :func:`keccak256_batch`."""
        block = TICK_PLAN_BLOCK if vectorised else keccak._BATCH_CROSSOVER - 1
        assert (block >= keccak._BATCH_CROSSOVER) == vectorised
        monkeypatch.setattr(scanner, "TICK_PLAN_BLOCK", block)
        seed, name = 5, "nodefinder-3"
        plan = TickPlan(seed, name)
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        assert plan.node_id == rng.randbytes(64)
        for _ in range(2 * block + 10):  # into a third block
            target, target_hash = plan.next_target()
            assert target == rng.randbytes(64)
            assert target_hash == keccak256(target)
            assert plan.next_jitter() == rng.uniform(0, 2.0)

    def test_crawler_ticks_follow_the_plan(self, monkeypatch):
        """Driven by the clock, tick k looks up the k-th target and tick
        k+1 fires ``interval + k-th jitter`` later — across block edges."""
        monkeypatch.setattr(scanner, "TICK_PLAN_BLOCK", 4)
        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=60, measurement_days=1.0, seed=3
                ),
                seed=3,
            )
        )
        finder = NodeFinderInstance(
            world, NodeFinderConfig(seed=9), name="nodefinder-2"
        )
        ticks = []
        monkeypatch.setattr(
            finder,
            "_lookup",
            lambda target_hash: ticks.append((world.now, target_hash)) or [],
        )
        finder.start()
        world.clock.run_until(150.0)
        assert len(ticks) > 2 * 4
        rng = random.Random(9 ^ zlib.crc32(b"nodefinder-2"))
        assert finder.node_id == rng.randbytes(64)
        when, jitter = 0.0, 0.0
        for at, target_hash in ticks:
            when += finder.config.discovery_interval + jitter
            assert at == when
            assert target_hash == keccak256(rng.randbytes(64))
            jitter = rng.uniform(0, 2.0)


class TestScannerIntegration:
    @pytest.fixture(scope="class")
    def crawl(self):
        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=250, measurement_days=2.0, seed=17
                ),
                seed=17,
            )
        )
        fleet = run_fleet(
            world,
            instance_count=2,
            days=2.0,
            config=NodeFinderConfig(discovery_interval=90.0),
            watch_bootstrap=True,
        )
        return world, fleet

    def test_finds_most_of_the_network(self, crawl):
        world, fleet = crawl
        db = fleet.merged_db
        legit_seen = {
            entry.node_id for entry in db if entry.node_id in world.nodes
        }
        population = {
            spec_id
            for spec_id, node in world.nodes.items()
            if node.spec.arrival_day < 2.0
        }
        coverage = len(legit_seen & population) / len(population)
        assert coverage > 0.6

    def test_sees_unreachable_nodes_via_incoming(self, crawl):
        world, fleet = crawl
        db = fleet.merged_db
        unreachable_seen = [
            entry for entry in db
            if entry.node_id in world.nodes
            and not world.nodes[entry.node_id].spec.reachable
            and entry.got_hello
        ]
        assert unreachable_seen
        for entry in unreachable_seen[:10]:
            assert entry.connection_types == {"incoming"} or "incoming" in entry.connection_types

    def test_static_dials_dominate_after_warmup(self, crawl):
        _, fleet = crawl
        stats = fleet.merged_stats
        assert stats.daily_average("static_dial_attempts", 1) > stats.daily_average(
            "dynamic_dial_attempts", 1
        )

    def test_bootstrap_static_dial_ceiling(self, crawl):
        """§5.2 / Figure 8: no more than 48 static dials per day per instance."""
        _, fleet = crawl
        for instance in fleet.instances:
            for day, dynamic, static in instance.stats.bootstrap_series():
                assert static <= 48
                assert dynamic <= 10

    def test_harvests_mainnet_info(self, crawl):
        world, fleet = crawl
        db = fleet.merged_db
        mainnet = db.mainnet_nodes()
        assert mainnet
        truth = {
            node_id
            for node_id, node in world.nodes.items()
            if node.spec.is_mainnet
        }
        false_positives = [
            entry for entry in mainnet
            if entry.node_id in world.nodes and entry.node_id not in truth
        ]
        assert len(false_positives) <= len(mainnet) * 0.05

    def test_instances_have_distinct_identities(self, crawl):
        _, fleet = crawl
        assert len(fleet.own_node_ids()) == 2

    def test_discovery_rate_within_limits(self, crawl):
        _, fleet = crawl
        for instance in fleet.instances:
            per_day = instance.stats.daily_average("discovery_attempts", 1)
            assert per_day <= 86400 / instance.config.discovery_interval * 1.2
