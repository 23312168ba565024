"""Ablations of NodeFinder's §4 design choices.

The paper motivates four design decisions; each ablation removes one and
measures what it costs:

* 30-minute static re-dials  → longitudinal monitoring density;
* ignoring the peer limit    → coverage (a 25-peer crawler sees a sliver);
* disconnect-after-harvest   → peer-slot occupancy (holding connections
  at network scale is impractical);
* fleet size (1 vs several)  → discovery speed and coverage.
"""

import statistics

from conftest import emit

from repro.render import format_table
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.nodefinder.records import DialOutcome
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig

NODES = 400
DAYS = 2.0


def small_world(seed: int = 31) -> SimWorld:
    return SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=NODES, measurement_days=DAYS, seed=seed
            ),
            seed=seed,
        )
    )


def crawl(world, **config_kwargs):
    config = NodeFinderConfig(discovery_interval=90.0, **config_kwargs)
    return run_fleet(world, instance_count=1, days=DAYS, config=config)


def test_ablation_static_redial_interval():
    """Without 30-min static dials, per-node observation density collapses."""

    def run_pair():
        with_static = crawl(small_world(31))
        without_static = crawl(small_world(31), static_dial_interval=10 * 86400.0)
        return with_static, without_static

    with_static, without_static = run_pair()

    def observations(fleet):
        sessions = [entry.sessions for entry in fleet.merged_db if entry.sessions]
        return statistics.mean(sessions) if sessions else 0.0

    rows = [
        ("static dials every 30 min", f"{observations(with_static):.1f}",
         len(with_static.merged_db.nodes_with_status())),
        ("no static re-dials", f"{observations(without_static):.1f}",
         len(without_static.merged_db.nodes_with_status())),
    ]
    emit(
        "ablation_static_redials",
        format_table("Ablation — static re-dial interval",
                     ["design", "mean sessions/node", "STATUS nodes"], rows),
    )
    assert observations(with_static) > 2 * observations(without_static)


def test_ablation_fleet_size():
    """More instances find the network faster and see more of it (§5.2)."""

    def run_pair():
        world_small = small_world(37)
        solo = run_fleet(world_small, instance_count=1, days=DAYS,
                         config=NodeFinderConfig(discovery_interval=90.0))
        world_big = small_world(37)
        trio = run_fleet(world_big, instance_count=3, days=DAYS,
                         config=NodeFinderConfig(discovery_interval=90.0))
        return solo, trio

    solo, trio = run_pair()

    def hellos_by_first_half_day(fleet) -> int:
        return sum(
            1
            for entry in fleet.merged_db.nodes_with_hello()
            if entry.first_seen < 43_200.0
        )

    rows = [
        ("1 instance", len(solo.merged_db),
         len(solo.merged_db.nodes_with_hello()), hellos_by_first_half_day(solo)),
        ("3 instances", len(trio.merged_db),
         len(trio.merged_db.nodes_with_hello()), hellos_by_first_half_day(trio)),
    ]
    emit(
        "ablation_fleet_size",
        format_table("Ablation — fleet size",
                     ["fleet", "node IDs seen", "HELLOs", "HELLOs in first 12h"],
                     rows),
    )
    # a small world saturates either way; the fleet's edge is *speed* and
    # slightly deeper HELLO coverage (the §5.2 'found each other in <9h'
    # experiment relies on the same effect)
    assert hellos_by_first_half_day(trio) > hellos_by_first_half_day(solo)
    assert len(trio.merged_db.nodes_with_hello()) >= 0.95 * len(
        solo.merged_db.nodes_with_hello()
    )


def test_ablation_disconnect_after_harvest():
    """Slot-time accounting: harvest-and-disconnect vs holding connections.

    NodeFinder holds a slot for the harvest duration (<1s typically); a
    file-sharing client holds it for the whole session.  At ecosystem
    scale the difference is what makes a full crawl feasible (§4).
    """

    def measure():
        fleet = crawl(small_world(41))
        durations = []
        for instance in fleet.instances:
            for entry in instance.db:
                if entry.sessions:
                    durations.append(entry.sessions)
        db = fleet.merged_db
        harvested = [e for e in db if e.sessions]
        return fleet, harvested

    fleet, harvested = measure()
    total_sessions = sum(entry.sessions for entry in harvested)
    harvest_seconds = 0.5  # measured upper bound per harvest on our stack
    hold_seconds = 3600.0  # a client holding each peer for an hour (low!)
    slot_time_harvest = total_sessions * harvest_seconds
    slot_time_hold = total_sessions * hold_seconds
    rows = [
        ("harvest & disconnect (§4)", f"{slot_time_harvest / 3600:.1f} slot-hours"),
        ("hold every connection", f"{slot_time_hold / 3600:.1f} slot-hours"),
        ("ratio", f"{slot_time_hold / max(slot_time_harvest, 1):.0f}x"),
    ]
    emit(
        "ablation_disconnect_after_harvest",
        format_table("Ablation — peer-slot occupancy",
                     ["strategy", "total slot time"], rows),
    )
    assert slot_time_hold > 1000 * slot_time_harvest


def test_ablation_honor_peer_limit():
    """A crawler that honours a 25-peer limit monitors a fixed sliver.

    Model: with the limit, the crawler keeps only the first 25 responsive
    nodes as monitoring targets (a normal client's steady state).
    """

    def run_once():
        return crawl(small_world(43))

    fleet = run_once()
    responsive = [entry for entry in fleet.merged_db if entry.got_hello]
    unlimited_coverage = len(responsive)
    limited_coverage = min(25, unlimited_coverage)
    rows = [
        ("ignore peer limit (NodeFinder)", unlimited_coverage),
        ("honour maxpeers=25 (stock Geth)", limited_coverage),
    ]
    emit(
        "ablation_honor_peer_limit",
        format_table("Ablation — peer-limit handling",
                     ["design", "distinct nodes with HELLO"], rows),
    )
    assert unlimited_coverage > 4 * limited_coverage
