"""Fleet journals: one journal per instance, and one page over all of them.

Covers the ``run_fleet(telemetry_dir=...)`` path end to end — files on
disk, the health page's fleet totals (the sum of every instance's
journal), and replay of the instances' journals into the fleet view.
"""

from __future__ import annotations

import pytest

from repro.analysis.ingest import replay_journals
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import iter_events, render_top


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    telemetry_dir = tmp_path_factory.mktemp("fleet-telemetry")
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=100, measurement_days=1.0, seed=23
            )
        )
    )
    return run_fleet(
        world,
        instance_count=3,
        days=1.0,
        config=NodeFinderConfig(discovery_interval=120.0),
        telemetry_dir=telemetry_dir,
    )


def dial_records(path) -> int:
    return sum(1 for event in iter_events(path) if event.type == "dial")


class TestFleetTelemetryExport:
    def test_journal_per_instance_on_disk(self, fleet):
        assert len(fleet.journal_paths) == 3
        for path, instance in zip(fleet.journal_paths, fleet.instances):
            assert path.name == f"{instance.name}.jsonl"
            assert path.stat().st_size > 0
        # the journals are the whole record: nothing else is written
        assert sorted(p.name for p in fleet.journal_paths[0].parent.iterdir()) == [
            p.name for p in fleet.journal_paths
        ]

    def test_page_totals_equal_sum_of_instances(self, fleet):
        page = render_top((path, iter_events(path)) for path in fleet.journal_paths)
        lines = page.splitlines()
        start = lines.index("Journals") + 3
        rows = [line.split() for line in lines[start : start + 3]]
        assert [row[0] for row in rows] == [p.name for p in fleet.journal_paths]
        per_instance = [dial_records(path) for path in fleet.journal_paths]
        assert [int(row[1]) for row in rows] == per_instance
        funnel_start = lines.index("Dial funnel") + 3
        funnel = []
        for line in lines[funnel_start:]:
            if not line.strip():
                break
            funnel.append(int(line.split()[1]))
        assert sum(funnel) == sum(per_instance)

    def test_journals_replay_to_the_fleet_view(self, fleet):
        replayed = replay_journals(fleet.journal_paths)
        assert replayed.dials_replayed == sum(
            dial_records(path) for path in fleet.journal_paths
        )
        # every peer any instance dialed appears in the merged replay
        for instance in fleet.instances:
            for entry in instance.db:
                assert entry.node_id in replayed.db
