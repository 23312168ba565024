"""Hot-path profiler: scope accounting, determinism, CLI golden."""

import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.clock import SimClock
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import (
    NULL_PROFILER,
    Profiler,
    Telemetry,
    TickClock,
    render_profile,
)

DATA = Path(__file__).parent / "data"


def check_golden(name: str, rendered: str) -> None:
    path = DATA / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(rendered + "\n", encoding="utf-8")
    assert rendered + "\n" == path.read_text(encoding="utf-8")


class FakeClock:
    """Scripted clock: pops the next reading off a list."""

    def __init__(self, readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TestTickClock:
    def test_each_read_advances_one_quantum(self):
        clock = TickClock(quantum=0.5)
        assert [clock(), clock(), clock()] == [0.0, 0.5, 1.0]

    def test_default_quantum_is_a_microsecond(self):
        clock = TickClock()
        clock()
        assert clock() == pytest.approx(1e-6)


class TestProfiler:
    def test_scope_counts_and_times(self):
        profiler = Profiler(clock=FakeClock([0.0, 2.0]))
        with profiler.scope("dial"):
            pass
        stat = profiler.stats["dial"]
        assert stat.calls == 1
        assert stat.total == pytest.approx(2.0)
        assert stat.self_time == pytest.approx(2.0)
        assert stat.max == pytest.approx(2.0)

    def test_nested_scope_splits_self_time(self):
        # parent 0..10, child 2..5: parent self = 10 - 3 = 7
        profiler = Profiler(clock=FakeClock([0.0, 2.0, 5.0, 10.0]))
        with profiler.scope("tick"):
            with profiler.scope("lookup"):
                pass
        assert profiler.stats["lookup"].self_time == pytest.approx(3.0)
        assert profiler.stats["tick"].total == pytest.approx(10.0)
        assert profiler.stats["tick"].self_time == pytest.approx(7.0)

    def test_max_tracks_worst_single_call(self):
        profiler = Profiler(clock=FakeClock([0.0, 1.0, 1.0, 6.0]))
        for _ in range(2):
            with profiler.scope("dial"):
                pass
        stat = profiler.stats["dial"]
        assert stat.calls == 2
        assert stat.max == pytest.approx(5.0)

    def test_exception_still_closes_the_scope(self):
        profiler = Profiler(clock=TickClock())
        with pytest.raises(RuntimeError):
            with profiler.scope("dial"):
                raise RuntimeError("boom")
        assert profiler.stats["dial"].calls == 1

    def test_sampling_counts_every_entry_but_times_a_subset(self):
        profiler = Profiler(clock=TickClock(), sample_every=3)
        for _ in range(9):
            with profiler.scope("dial"):
                pass
        stat = profiler.stats["dial"]
        assert stat.calls == 9
        assert profiler.entries == 9
        # entries 3, 6, 9 were timed; each costs one quantum
        assert stat.total == pytest.approx(3e-6)

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Profiler(sample_every=0)

    def test_null_profiler_records_nothing(self):
        with NULL_PROFILER.scope("dial"):
            pass
        assert NULL_PROFILER.stats == {}
        assert NULL_PROFILER.enabled is False

    def test_telemetry_defaults_to_the_null_profiler(self):
        assert Telemetry().profiler is NULL_PROFILER


class TestRenderProfile:
    def test_rows_sort_by_self_time_then_name(self):
        profiler = Profiler(clock=FakeClock([0.0, 5.0, 0.0, 1.0, 0.0, 1.0]))
        for name in ("slow", "b_fast", "a_fast"):
            with profiler.scope(name):
                pass
        lines = render_profile(profiler).splitlines()
        order = [line.split()[0] for line in lines[3:6]]
        assert order == ["slow", "a_fast", "b_fast"]

    def test_renders_empty_profiler(self):
        rendered = render_profile(Profiler(clock=TickClock()))
        assert "Hot-path profile" in rendered
        assert "0 scope entries" in rendered


class TestClockProfiling:
    def test_labelled_callbacks_attribute_to_their_label(self):
        clock = SimClock()
        profiler = Profiler(clock=TickClock())
        clock.profiler = profiler
        clock.schedule(1.0, lambda: None, label="world.tick")
        clock.schedule(2.0, lambda: None)
        clock.run_for(5.0)
        assert profiler.stats["world.tick"].calls == 1
        assert profiler.stats["clock.unlabelled"].calls == 1

    def test_unprofiled_clock_pays_no_scopes(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None, label="world.tick")
        clock.run_for(5.0)  # profiler is None: plain call path


def _profiled_crawl():
    profiler = Profiler(clock=TickClock())
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=150, seed=2018, measurement_days=1.0
            ),
            seed=7,
        )
    )
    run_fleet(
        world,
        instance_count=1,
        days=0.5,
        config=NodeFinderConfig(seed=1, discovery_interval=200),
        profiler=profiler,
    )
    return profiler


class TestSimIntegration:
    def test_sim_crawl_attributes_every_subsystem(self):
        profiler = _profiled_crawl()
        for name in (
            "scanner.discovery_tick",
            "scanner.lookup",
            "scanner.dial",
            "scanner.static_tick",
            "writer.fold",
            "world.grow_chain",
        ):
            assert profiler.stats[name].calls > 0, name

    def test_sim_crawl_profile_is_byte_stable(self):
        first = render_profile(_profiled_crawl())
        second = render_profile(_profiled_crawl())
        assert first == second


class TestProfileCLI:
    ARGS = [
        "profile",
        "--nodes", "150",
        "--days", "0.5",
        "--discovery-interval", "200",
    ]

    def test_profile_command_matches_golden(self, capsys):
        assert main(self.ARGS) == 0
        check_golden("golden_profile.txt", capsys.readouterr().out.rstrip("\n"))

    def test_profile_command_is_byte_stable(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_simulate_profile_prints_the_table(self, capsys):
        assert main([
            "simulate", "--nodes", "120", "--days", "1",
            "--instances", "1", "--discovery-interval", "300", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "Hot-path profile" in out
        assert "scanner.dial" in out
        assert "DEVp2p services" in out  # the report still renders
