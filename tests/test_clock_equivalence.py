"""Scheduler-equivalence harness: WheelClock vs ReferenceClock.

``ReferenceClock`` (``tests/support/clock.py``) is a ``WheelClock`` whose
queue primitives are one binary heap: the two share every line of
scheduling and execution, and differ only in how they order the queue.

The event-core rework swaps the simulation's single binary heap for a
hierarchical calendar wheel.  The acceptance criterion is not speed but
*provable equivalence*: the wheel must be observationally identical to
the reference heap, because every golden in the repo — analyze reports,
shard conformance, eclipse forensics — is downstream of event
order.  This harness drives both implementations through identical
schedules and demands

* identical callback order and ``now`` trajectories on scripted
  schedules that stress every wheel mechanism (same-tick FIFO ties,
  sub-tick timestamp ordering, overflow-horizon crossings, empty-wheel
  cursor jumps, late-arrival clamps, jittered periodic loops),
* identical behaviour at the documented contract edges
  (``schedule_every``'s fire-at-until boundary, ``run_until``'s
  ``max_events`` drain-on-last-event case), and
* for the integrated proof: a seeded 1k-node crawl run once on each
  clock produces entry-for-entry equal NodeDBs, day-for-day equal
  CrawlStats, byte-identical journals and byte-identical ``nodefinder
  analyze`` reports.

A companion Hypothesis suite in ``tests/test_simnet_clock.py`` fuzzes
arbitrary operation interleavings against the same oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.errors import SimulationError
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.clock import WheelClock
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from tests.support.clock import ReferenceClock

WORLD_SEED = 2018
CRAWL_SEED = 1
DAYS = 0.25


def trace_of(clock_cls, script, **clock_kwargs):
    """Run a schedule script against one clock; return its firing trace.

    The script is a callable taking ``(clock, fire)`` — ``fire(tag)``
    returns a callback that records ``(tag, clock.now)`` — plus a
    ``rng`` seeded identically for every clock, so jittered schedules
    draw the same values on both implementations.
    """
    clock = clock_cls(**clock_kwargs)
    trace: list[tuple[str, float]] = []

    def fire(tag: str):
        def callback() -> None:
            trace.append((tag, clock.now))

        return callback

    script(clock, fire, random.Random(99))
    return clock, trace


def assert_equivalent(script, **wheel_kwargs):
    """Both clocks run ``script``; assert identical traces and state."""
    wheel, wheel_trace = trace_of(WheelClock, script, **wheel_kwargs)
    reference, reference_trace = trace_of(ReferenceClock, script)
    assert wheel_trace == reference_trace
    assert wheel.now == reference.now
    assert wheel.events_processed == reference.events_processed
    assert wheel.pending == reference.pending
    return wheel_trace


class TestScriptedEquivalence:
    def test_interleaved_schedules_with_ties(self):
        def script(clock, fire, rng):
            for index in range(40):
                clock.schedule(float(index % 7), fire(f"a{index}"))
            for index in range(10):
                clock.schedule(3.0, fire(f"tie{index}"))  # same-instant FIFO
            clock.schedule_at(5.5, fire("abs"))
            clock.run_until(10.0)

        trace = assert_equivalent(script)
        tie_tags = [tag for tag, _ in trace if tag.startswith("tie")]
        assert tie_tags == [f"tie{i}" for i in range(10)]

    def test_sub_tick_ordering_within_one_bucket(self):
        # many distinct float timestamps inside a single 1s wheel tick:
        # the bucket's lazy (when, seq) sort must order them exactly
        def script(clock, fire, rng):
            offsets = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6]
            for offset in offsets:
                clock.schedule(offset, fire(f"t{offset}"))
            clock.run_until(1.0)

        trace = assert_equivalent(script)
        assert [now for _, now in trace] == sorted(now for _, now in trace)

    def test_callbacks_scheduling_callbacks(self):
        def script(clock, fire, rng):
            def chain(depth: int):
                def callback() -> None:
                    fire(f"chain{depth}")()
                    if depth < 12:
                        clock.schedule(0.25 * depth, chain(depth + 1))

                return callback

            clock.schedule(1.0, chain(0))
            clock.schedule(2.0, fire("mid"))
            clock.run_until(60.0)

        assert_equivalent(script)

    def test_zero_delay_reschedule_is_fifo_after_peers(self):
        def script(clock, fire, rng):
            def again() -> None:
                fire("first")()
                clock.schedule(0.0, fire("requeued"))

            clock.schedule(1.0, again)
            clock.schedule(1.0, fire("peer"))
            clock.run_until(2.0)

        trace = assert_equivalent(script)
        assert [tag for tag, _ in trace] == ["first", "peer", "requeued"]

    def test_overflow_horizon_and_migration(self):
        # a tiny wheel (4 slots of 0.5s) forces the overflow heap and
        # per-advance migration to carry almost the entire schedule
        def script(clock, fire, rng):
            for index in range(60):
                clock.schedule(rng.uniform(0.0, 30.0), fire(f"o{index}"))
            clock.schedule(100.0, fire("far"))
            clock.run_until(120.0)

        assert_equivalent(script, tick=0.5, slots=4)

    def test_empty_wheel_jump_then_late_arrival_clamp(self):
        def script(clock, fire, rng):
            # only a far-future event: the cursor jumps straight to it
            clock.schedule(5000.0, fire("far"))

            def early() -> None:
                fire("early")()
                # cursor has already advanced; this clamps into the
                # cursor bucket and must still run in timestamp order
                clock.schedule(1.0, fire("clamped"))

            clock.schedule(2500.0, early)
            clock.run_until(6000.0)

        trace = assert_equivalent(script)
        assert [tag for tag, _ in trace] == ["early", "clamped", "far"]

    def test_jittered_periodic_loops(self):
        def script(clock, fire, rng):
            clock.schedule_every(
                7.0, fire("j"), jitter=lambda: rng.uniform(-2.0, 2.0)
            )
            clock.schedule_every(11.0, fire("p"), until=200.0)
            clock.run_until(400.0)

        assert_equivalent(script)

    def test_run_until_run_for_interleaving(self):
        def script(clock, fire, rng):
            for index in range(30):
                clock.schedule(rng.uniform(0.0, 50.0), fire(f"e{index}"))
            clock.run_until(10.0)
            clock.schedule(1.0, fire("after-first"))
            clock.run_for(15.0)
            clock.schedule_at(clock.now + 0.5, fire("tail"))
            clock.run_until(60.0)

        assert_equivalent(script)

    def test_event_exactly_at_deadline_runs(self):
        def script(clock, fire, rng):
            clock.schedule(5.0, fire("at-deadline"))
            clock.schedule(5.0 + 1e-9, fire("just-after"))
            clock.run_until(5.0)

        trace = assert_equivalent(script)
        assert [tag for tag, _ in trace] == ["at-deadline"]


class TestContractEdges:
    """The two boundary contracts the rework pinned down, on both clocks."""

    @pytest.mark.parametrize("clock_cls", [WheelClock, ReferenceClock])
    def test_schedule_every_fires_at_until_boundary(self, clock_cls):
        # fire-at-until: the tick landing exactly on `until` still runs
        clock = clock_cls()
        ticks = []
        clock.schedule_every(10.0, lambda: ticks.append(clock.now), until=30.0)
        clock.run_until(100.0)
        assert ticks == [10.0, 20.0, 30.0]

    @pytest.mark.parametrize("clock_cls", [WheelClock, ReferenceClock])
    def test_max_events_drain_on_last_event_succeeds(self, clock_cls):
        # the queue drains on exactly the max-th event: success, not error
        clock = clock_cls()
        seen = []
        for index in range(5):
            clock.schedule(float(index), lambda i=index: seen.append(i))
        clock.run_until(10.0, max_events=5)
        assert seen == [0, 1, 2, 3, 4]
        assert clock.now == 10.0

    @pytest.mark.parametrize("clock_cls", [WheelClock, ReferenceClock])
    def test_max_events_exceeded_still_raises(self, clock_cls):
        clock = clock_cls()
        for index in range(6):
            clock.schedule(float(index), lambda: None)
        with pytest.raises(SimulationError):
            clock.run_until(10.0, max_events=5)

    @pytest.mark.parametrize("clock_cls", [WheelClock, ReferenceClock])
    def test_max_events_ignores_events_past_deadline(self, clock_cls):
        # the guard only counts work due <= deadline; later events are
        # not "exceeding the budget", they are simply not due yet
        clock = clock_cls()
        for index in range(3):
            clock.schedule(float(index), lambda: None)
        clock.schedule(50.0, lambda: None)
        clock.run_until(10.0, max_events=3)
        assert clock.pending == 1


def _crawl(clock_cls, telemetry_dir):
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=1_000, measurement_days=DAYS, seed=WORLD_SEED
            ),
            seed=7,
        ),
        clock=clock_cls(),
    )
    fleet = run_fleet(
        world,
        instance_count=1,
        days=DAYS,
        config=NodeFinderConfig(
            seed=CRAWL_SEED,
            discovery_interval=200,
        ),
        telemetry_dir=telemetry_dir,
    )
    return world, fleet, sorted(fleet.journal_paths)


@pytest.fixture(scope="module")
def crawls(tmp_path_factory):
    """The canonical 1k crawl, once per clock implementation."""
    out = {}
    for clock_cls in (WheelClock, ReferenceClock):
        telemetry_dir = tmp_path_factory.mktemp(f"eq-{clock_cls.__name__}")
        out[clock_cls.__name__] = _crawl(clock_cls, telemetry_dir)
    return out


class TestCrawlEquivalence:
    """The integrated proof: one seeded 1k crawl per clock, equal output."""

    def test_crawl_is_nontrivial(self, crawls):
        _, fleet, journal_paths = crawls["WheelClock"]
        [instance] = fleet.instances
        assert len(instance.db) > 200
        assert len(journal_paths) == 1

    def test_clock_state_identical(self, crawls):
        wheel_world = crawls["WheelClock"][0]
        reference_world = crawls["ReferenceClock"][0]
        assert wheel_world.clock.now == reference_world.clock.now
        assert (
            wheel_world.clock.events_processed
            == reference_world.clock.events_processed
        )

    def test_nodedb_equal_entry_for_entry(self, crawls):
        [wheel] = crawls["WheelClock"][1].instances
        [reference] = crawls["ReferenceClock"][1].instances
        assert len(wheel.db) == len(reference.db)
        for entry in reference.db:
            assert wheel.db.get(entry.node_id) == entry, entry.node_id.hex()

    def test_stats_equal_day_for_day(self, crawls):
        [wheel] = crawls["WheelClock"][1].instances
        [reference] = crawls["ReferenceClock"][1].instances
        assert set(wheel.stats.days) == set(reference.stats.days)
        for day, counters in reference.stats.days.items():
            assert wheel.stats.days[day] == counters, f"day {day}"

    def test_journals_byte_identical(self, crawls):
        wheel_paths = crawls["WheelClock"][2]
        reference_paths = crawls["ReferenceClock"][2]
        assert [p.name for p in wheel_paths] == [p.name for p in reference_paths]
        for wheel_path, reference_path in zip(wheel_paths, reference_paths):
            assert wheel_path.read_bytes() == reference_path.read_bytes()

    def test_analyze_reports_byte_identical(self, crawls, capsys):
        reports = {}
        for name, (_, _, journal_paths) in crawls.items():
            argv = ["analyze"]
            for path in journal_paths:
                argv += ["--journal", str(path)]
            assert main(argv) == 0
            reports[name] = capsys.readouterr().out
        assert reports["WheelClock"] == reports["ReferenceClock"]
        assert "Table 1" in reports["WheelClock"]
