"""§5.2's closing validation: NodeFinder instances find each other.

The paper's 30 instances, all started simultaneously, each discovered the
other 29 within 9 hours (the fastest in ~3).  We run a small fleet and
check every instance's database contains every other instance's node ID
well before the end of the first simulated day.
"""

from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.units import SECONDS_PER_HOUR
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig


def test_instances_find_each_other_within_a_day():
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(total_nodes=250, measurement_days=1.0, seed=88),
            seed=88,
        )
    )
    fleet = run_fleet(
        world,
        instance_count=3,
        days=1.0,
        config=NodeFinderConfig(discovery_interval=45.0),
    )
    ids = {instance.node_id: instance.name for instance in fleet.instances}
    deadline = 9 * SECONDS_PER_HOUR  # the paper's slowest completion
    for instance in fleet.instances:
        others = set(ids) - {instance.node_id}
        for other_id in others:
            entry = instance.db.get(other_id)
            assert entry is not None, (
                f"{instance.name} never found {ids[other_id]}"
            )
            assert entry.got_hello, f"{instance.name} never connected to {ids[other_id]}"
            assert entry.first_seen <= deadline


def test_scanner_presence_is_excluded_by_sanitization():
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(total_nodes=150, measurement_days=1.0, seed=89),
            seed=89,
        )
    )
    fleet = run_fleet(
        world, instance_count=2, days=1.0,
        config=NodeFinderConfig(discovery_interval=90.0),
    )
    from repro.nodefinder.sanitize import sanitize

    cleaned, report = sanitize(fleet.merged_db, fleet.own_node_ids())
    for instance in fleet.instances:
        assert instance.node_id in report.scanner_node_ids
        assert cleaned.get(instance.node_id) is None
