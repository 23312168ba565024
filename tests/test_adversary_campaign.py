"""Eclipse/Sybil campaign acceptance: the adversarial scenario pack.

One small world, three crawls — attack-free baseline, campaign with the
defences off, campaign with the defences on — plus a byte-for-byte
replay of the defended run's journals through ``detect_eclipse``.  The
campaign (a ground-ID /24 swarm with false-friend NEIGHBORS poisoning
and phantom amplification) runs on the deterministic world clock with
its own seeded RNG, so every number below is reproducible bit-for-bit.

Pins the PR's acceptance criteria:

* same seeds → same campaign (merged NodeDB and attacker bookkeeping
  identical across runs);
* defences off: the eclipse report's attacker table share crosses the
  alarm threshold;
* defences on: the crawl completes, honest-node coverage stays within
  5% of the attack-free baseline, and the stats surface the anomaly;
* the rendered eclipse section is byte-identical to its golden file.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.analysis.eclipse import detect_eclipse
from repro.analysis.ingest import replay_journals
from repro.analysis.report import render_eclipse
from repro.nodefinder.defense import MAX_DYNAMIC_DIALS_PER_TICK
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.adversary import AdversaryCampaign, AdversaryConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import iter_events, render_top

pytestmark = pytest.mark.adversary

DATA = Path(__file__).parent / "data"

#: small-but-eclipsable world: one crawler day against ~250 specs
CRAWL_DAYS = 1.0


def make_world() -> SimWorld:
    return SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=250, seed=2, measurement_days=2.0
            ),
            seed=7,
        )
    )


def crawler_config(defended: bool) -> NodeFinderConfig:
    return NodeFinderConfig(
        seed=1,
        discovery_interval=60.0,
        defended=defended,
    )


def campaign() -> AdversaryCampaign:
    return AdversaryCampaign(AdversaryConfig(seed=99))


def observed_share(adversary: AdversaryCampaign, node_ids) -> float:
    """Attacker fraction of an observed-node-ID collection."""
    ids = list(node_ids)
    if not ids:
        return 0.0
    return sum(1 for node_id in ids if adversary.is_attacker(node_id)) / len(ids)


def run_campaign(defended: bool, telemetry_dir=None):
    world = make_world()
    adversary = campaign()
    fleet = run_fleet(
        world,
        instance_count=1,
        days=CRAWL_DAYS,
        config=crawler_config(defended),
        telemetry_dir=telemetry_dir,
        adversary=adversary,
    )
    return fleet, adversary


@pytest.fixture(scope="module")
def baseline():
    """Attack-free crawl of the same world with the same crawler seeds."""
    return run_fleet(
        make_world(),
        instance_count=1,
        days=CRAWL_DAYS,
        config=crawler_config(defended=False),
    )


@pytest.fixture(scope="module")
def undefended():
    return run_campaign(defended=False)


@pytest.fixture(scope="module")
def defended(tmp_path_factory):
    telemetry_dir = tmp_path_factory.mktemp("defended-journals")
    fleet, adversary = run_campaign(defended=True, telemetry_dir=telemetry_dir)
    return fleet, adversary, telemetry_dir


@pytest.fixture(scope="module")
def defended_detection(defended):
    fleet, _, telemetry_dir = defended
    replayed = replay_journals(sorted(telemetry_dir.glob("*.jsonl")))
    return detect_eclipse(replayed)


class TestDeterminism:
    def test_same_seeds_same_campaign(self, undefended):
        fleet_a, adversary_a = undefended
        fleet_b, adversary_b = run_campaign(defended=False)
        db_a, db_b = fleet_a.merged_db, fleet_b.merged_db
        assert {e.node_id for e in db_a} == {e.node_id for e in db_b}
        assert adversary_a.answers_served == adversary_b.answers_served
        assert adversary_a.ground_ids.keys() == adversary_b.ground_ids.keys()
        victim_a = fleet_a.instances[0]
        victim_b = fleet_b.instances[0]
        assert adversary_a.table_share(victim_a.table) == pytest.approx(
            adversary_b.table_share(victim_b.table)
        )

    def test_adversary_free_run_untouched_by_plumbing(self, baseline):
        """The two-phase fleet start leaves clean runs adversary-free."""
        assert all(
            instance.defense_snapshot().total_rejections == 0
            for instance in baseline.instances
        )


class TestUndefendedCampaign:
    def test_swarm_owns_alarm_worthy_table_share(self, undefended):
        fleet, adversary = undefended
        victim = fleet.instances[0]
        share = adversary.table_share(victim.table)
        assert share >= 0.15, f"table share {share:.1%} under alarm threshold"

    def test_poisoned_answers_were_served(self, undefended):
        _, adversary = undefended
        assert adversary.answers_served > 0
        assert all(
            len(ids) > 0 for ids in adversary.ground_ids.values()
        ), "grinder failed to fill a bucket quota"

    def test_swarm_floods_the_merged_view(self, undefended):
        fleet, adversary = undefended
        observed = {entry.node_id for entry in fleet.merged_db}
        assert observed_share(adversary, observed) >= 0.15


class TestDefendedCampaign:
    def test_crawl_completes_with_honest_coverage(self, baseline, defended):
        fleet, _, _ = defended
        # long-lived honest identities (world nodes, identical across the
        # two deterministic world builds); abusive-IP churn identities are
        # ephemeral by design and excluded from the coverage contract
        honest = set(baseline.world.nodes)
        base_covered = {
            entry.node_id for entry in baseline.merged_db
        } & honest
        defended_covered = {
            entry.node_id for entry in fleet.merged_db
        } & honest
        coverage = len(defended_covered) / len(base_covered)
        assert coverage >= 0.95, (
            f"defences cost {1 - coverage:.1%} of honest coverage"
        )

    def test_defences_absorbed_and_flagged_the_attack(self, defended):
        fleet, adversary, _ = defended
        stats = fleet.instances[0].defense_snapshot()
        assert stats.total_rejections > 0
        assert stats.anomaly_detected
        # the guarded table holds less of the swarm than the open one
        victim = fleet.instances[0]
        assert adversary.table_share(victim.table) <= 0.15

    def test_budget_bounds_each_discovery_tick(self, defended):
        fleet, _, _ = defended
        stats = fleet.instances[0].defense_snapshot()
        assert stats.budget_dropped_dials >= 0  # accounting present
        assert fleet.instances[0].core.budget == MAX_DYNAMIC_DIALS_PER_TICK > 0

    def test_health_page_reports_breakers_by_scope(self, defended):
        """`top` counts subnet-scope breaker records apart from peer ones:
        its subnet →open count is the crawler's own trip counter, its
        peer →open count the journal's peer-scope open records."""
        fleet, _, _ = defended
        peer_opens = sum(
            1
            for path in fleet.journal_paths
            for event in iter_events(path)
            if event.type == "breaker"
            and event.fields.get("scope") != "subnet"
            and event.fields["new"] == "open"
        )
        trips = fleet.instances[0].defense_snapshot().subnet_breaker_trips
        assert peer_opens > 0 and trips > 0
        page = render_top((path, iter_events(path)) for path in fleet.journal_paths)
        opens = {
            line.split()[0]: int(re.search(r"→open (\d+)", line).group(1))
            for line in page.splitlines()
            if line.startswith(("peer breakers:", "subnet breakers:"))
        }
        assert opens == {"peer": peer_opens, "subnet": trips}


class TestEclipseForensics:
    def test_detection_alarms_on_the_defended_journal(self, defended_detection):
        assert defended_detection.alarm
        assert defended_detection.total_admission_rejections > 0
        assert defended_detection.top_subnet_share > 0

    def test_eclipse_section_matches_golden(self, defended_detection):
        rendered = render_eclipse(defended_detection)
        path = DATA / "golden_eclipse.txt"
        if os.environ.get("UPDATE_GOLDENS"):
            path.write_text(rendered + "\n", encoding="utf-8")
        assert path.exists(), f"{path} missing — run with UPDATE_GOLDENS=1"
        assert rendered + "\n" == path.read_text(encoding="utf-8")
