"""Flight recorder: ring bounds, crash-dump triggers, black-box contents."""

import asyncio
import io
import json

import pytest

from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.live import LiveConfig, LiveNodeFinder
from repro.nodefinder.scanner import NodeFinderConfig
from repro.resilience.breaker import BreakerState
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import FlightRecorder, Telemetry, read_flightrecord
from repro.telemetry.journal import Event, EventJournal

from tests.helpers import plant_static

TOP_KEYS = {
    "flightrecord",
    "reason",
    "detail",
    "ts",
    "dump_count",
    "capacity",
    "shards",
}


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def event(n):
    return Event(type="dial", ts=float(n), fields={"seq": n})


def assert_well_formed(record):
    assert set(record) == TOP_KEYS
    assert record["flightrecord"] == 1
    for shard in record["shards"].values():
        assert set(shard) == {"events", "open_spans"}
        for entry in shard["events"]:
            assert "type" in entry and "ts" in entry


class TestRecorder:
    def test_ring_keeps_only_the_last_k_events(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "fr.json", capacity=4)
        for n in range(10):
            recorder.record_event(event(n))
        record = read_flightrecord(recorder.dump("test"))
        assert_well_formed(record)
        seqs = [entry["seq"] for entry in record["shards"][""]["events"]]
        assert seqs == [6, 7, 8, 9]

    def test_shards_keep_separate_rings(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "fr.json", capacity=2)
        recorder.record_event(event(1), shard="0")
        recorder.record_event(event(2), shard="1")
        record = read_flightrecord(recorder.dump("test"))
        assert sorted(record["shards"]) == ["0", "1"]
        assert [e["seq"] for e in record["shards"]["0"]["events"]] == [1]

    def test_open_spans_dumped_finished_spans_dropped(self, tmp_path):
        clock = FakeClock()
        recorder = FlightRecorder(tmp_path / "fr.json", clock=clock)
        telemetry = Telemetry(clock=clock, recorder=recorder)
        done = telemetry.start_span("dial")
        stage = done.child("connect")
        clock.advance(0.5)
        stage.finish()
        done.finish()
        hung = telemetry.start_span("dial")
        hung.child("connect")
        clock.advance(2.0)
        record = read_flightrecord(recorder.dump("test"))
        spans = record["shards"][""]["open_spans"]
        assert len(spans) == 1
        assert spans[0]["name"] == "dial"
        assert spans[0]["age"] == pytest.approx(2.0)
        assert spans[0]["stages"][0]["name"] == "connect"

    def test_span_tracking_bounded_at_capacity(self, tmp_path):
        clock = FakeClock()
        recorder = FlightRecorder(tmp_path / "fr.json", capacity=3, clock=clock)
        telemetry = Telemetry(clock=clock, recorder=recorder)
        for _ in range(10):
            telemetry.start_span("dial").finish()
        for _ in range(5):
            telemetry.start_span("hung")
        # finished spans were pruned to make room; the live list is bounded
        assert len(recorder._spans[""]) <= 3
        assert all(span.name == "hung" for span in recorder.open_spans())

    def test_dump_counts_and_overwrites(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "fr.json")
        recorder.record_event(event(1))
        first = read_flightrecord(recorder.dump("breaker-open", detail="aa"))
        second = read_flightrecord(recorder.dump("dial-crash", detail="boom"))
        assert (first["dump_count"], second["dump_count"]) == (1, 2)
        on_disk = read_flightrecord(tmp_path / "fr.json")
        assert on_disk["reason"] == "dial-crash"
        assert on_disk["detail"] == "boom"
        assert not (tmp_path / "fr.json.tmp").exists()  # atomic replace

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "fr.json", capacity=0)


class TestTelemetryTriggers:
    def make(self, tmp_path):
        clock = FakeClock()
        recorder = FlightRecorder(tmp_path / "fr.json", clock=clock)
        telemetry = Telemetry(
            journal=EventJournal(io.StringIO()), clock=clock, recorder=recorder
        )
        return telemetry, recorder

    def test_breaker_open_dumps(self, tmp_path):
        telemetry, recorder = self.make(tmp_path)
        telemetry.emit("dial", outcome="refused")
        telemetry.record_breaker(
            b"\x07" * 64, BreakerState.CLOSED, BreakerState.OPEN
        )
        record = read_flightrecord(recorder.path)
        assert_well_formed(record)
        assert record["reason"] == "breaker-open"
        assert record["detail"] == "07" * 64
        types = [e["type"] for e in record["shards"][""]["events"]]
        assert types == ["dial", "breaker"]  # the trip itself is in the ring

    def test_breaker_close_does_not_dump(self, tmp_path):
        telemetry, recorder = self.make(tmp_path)
        telemetry.record_breaker(
            b"\x07" * 64, BreakerState.OPEN, BreakerState.HALF_OPEN
        )
        telemetry.record_breaker(
            b"\x07" * 64, BreakerState.HALF_OPEN, BreakerState.CLOSED
        )
        assert not recorder.path.exists()

    def test_subnet_breaker_open_dumps(self, tmp_path):
        telemetry, recorder = self.make(tmp_path)
        telemetry.record_subnet_breaker(
            "10.0.0.0/24", BreakerState.CLOSED, BreakerState.OPEN
        )
        record = read_flightrecord(recorder.path)
        assert record["reason"] == "subnet-breaker-open"
        assert record["detail"] == "10.0.0.0/24"

    def test_dial_crash_dumps_with_the_error(self, tmp_path):
        telemetry, recorder = self.make(tmp_path)
        telemetry.record_dial_crash("RuntimeError('boom')")
        record = read_flightrecord(recorder.path)
        assert record["reason"] == "dial-crash"
        assert record["detail"] == "RuntimeError('boom')"

    def test_loop_crash_and_death_dump(self, tmp_path):
        telemetry, recorder = self.make(tmp_path)
        telemetry.record_loop_crash("discovery", "boom")
        assert read_flightrecord(recorder.path)["reason"] == "loop-crash"
        assert "discovery: boom" in read_flightrecord(recorder.path)["detail"]
        telemetry.record_loop_death("discovery", "boom")
        assert read_flightrecord(recorder.path)["reason"] == "loop-death"

    def test_recorder_only_telemetry_still_feeds_the_ring(self, tmp_path):
        # no journal: events must still reach the black box
        clock = FakeClock()
        recorder = FlightRecorder(tmp_path / "fr.json", clock=clock)
        telemetry = Telemetry(clock=clock, recorder=recorder)
        telemetry.emit("dial", outcome="refused")
        telemetry.record_dial_crash("boom")
        record = read_flightrecord(recorder.path)
        assert [e["type"] for e in record["shards"][""]["events"]] == ["dial"]


class TestSimnetIntegration:
    def test_breaker_trip_during_sim_crawl_dumps(self, tmp_path):
        # the defended crawl's own limits: ≈35% of simnet nodes refuse
        # inbound, and a refused peer's third dial inside a quarter day
        # trips its breaker CLOSED → OPEN, which must dump
        recorder = FlightRecorder(tmp_path / "flightrecord.json")
        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=200, seed=2018, measurement_days=1.0
                ),
                seed=7,
            )
        )
        run_fleet(
            world,
            instance_count=1,
            days=0.25,
            config=NodeFinderConfig(
                seed=1,
                discovery_interval=200,
                defended=True,
            ),
            recorder=recorder,
        )
        assert recorder.dumps >= 1
        record = read_flightrecord(tmp_path / "flightrecord.json")
        assert_well_formed(record)
        assert record["reason"] in ("breaker-open", "subnet-breaker-open")
        events = [
            entry
            for shard in record["shards"].values()
            for entry in shard["events"]
        ]
        assert events, "the ring held nothing at dump time"
        assert any(entry["type"] == "breaker" for entry in events)


class TestLiveDialCrash:
    def test_dial_loop_crash_dumps(self, tmp_path):
        async def scenario():
            recorder = FlightRecorder(tmp_path / "flightrecord.json")
            telemetry = Telemetry(
                journal=EventJournal(io.StringIO()), recorder=recorder
            )

            async def exploding_harvester(*args, **kwargs):
                raise RuntimeError("harvest exploded")

            finder = LiveNodeFinder(
                config=LiveConfig(
                    static_dial_interval=0.05, dial_timeout=0.5, retry=None
                ),
                telemetry=telemetry,
                harvester=exploding_harvester,
            )
            target = ENode(
                PrivateKey(91).public_key.to_bytes(), "127.0.0.1", 1, 1
            )
            plant_static(finder, target, 0.0)
            task = asyncio.create_task(finder._dial_loop())
            try:
                for _ in range(200):
                    if recorder.dumps:
                        break
                    await asyncio.sleep(0.01)
            finally:
                finder._stopping = True
                await asyncio.wait_for(task, timeout=5.0)
            assert recorder.dumps >= 1
            record = read_flightrecord(tmp_path / "flightrecord.json")
            assert_well_formed(record)
            assert record["reason"] == "dial-crash"
            assert "harvest exploded" in record["detail"]

        asyncio.run(scenario())
