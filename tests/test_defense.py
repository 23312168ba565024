"""Hostile-load hardening units: table admission, subnet breakers,
schema-v3 forensics plumbing, and the eclipse detector's empty-journal
behaviour (the `analyze` "no data" regression pins live in
``test_analysis_ingest.py``'s golden siblings; these are the components
underneath).
"""

from __future__ import annotations

import random

from repro.analysis.eclipse import detect_eclipse
from repro.analysis.ingest import ReplayedCrawl, replay
from repro.analysis.report import render_eclipse
from repro.discovery.admission import (
    REASON_IP_ID,
    REASON_SUBNET_BUCKET,
    REASON_SUBNET_TABLE,
    TableAdmission,
)
from repro.discovery.enode import ENode
from repro.discovery.routing import RoutingTable
from repro.resilience.breaker import BreakerState, PeerScoreboard
from repro.telemetry.journal import MIGRATIONS, SCHEMA_VERSION, Event


def _enode(node_id: bytes, ip: str) -> ENode:
    return ENode(node_id=node_id, ip=ip, udp_port=30303, tcp_port=30303)


def _ids(count: int, seed: int = 5) -> list:
    rng = random.Random(seed)
    return [rng.randbytes(64) for _ in range(count)]


class TestTableAdmission:
    def test_ip_id_limit_blocks_grinding(self):
        guard = TableAdmission(ids_per_ip=2, ips_per_bucket=10)
        ids = _ids(3)
        for node_id in ids[:2]:
            node = _enode(node_id, "9.9.9.9")
            assert guard.check(node, bucket_index=0) is None
            guard.note_add(node, bucket_index=0)
        reason = guard.check(_enode(ids[2], "9.9.9.9"), bucket_index=0)
        assert reason == REASON_IP_ID
        assert guard.rejections == {REASON_IP_ID: 1}

    def test_subnet_table_limit(self):
        guard = TableAdmission(ips_per_subnet=3, ips_per_bucket=10, ids_per_ip=10)
        ids = _ids(4)
        for index, node_id in enumerate(ids[:3]):
            node = _enode(node_id, f"10.0.0.{index + 1}")
            assert guard.check(node, bucket_index=index) is None
            guard.note_add(node, bucket_index=index)
        reason = guard.check(_enode(ids[3], "10.0.0.200"), bucket_index=9)
        assert reason == REASON_SUBNET_TABLE
        # a different /24 is still welcome
        assert guard.check(_enode(ids[3], "10.0.1.1"), bucket_index=9) is None

    def test_subnet_bucket_limit(self):
        guard = TableAdmission(ips_per_subnet=10, ips_per_bucket=2, ids_per_ip=10)
        ids = _ids(3)
        for index, node_id in enumerate(ids[:2]):
            node = _enode(node_id, f"10.0.0.{index + 1}")
            guard.note_add(node, bucket_index=7)
        assert (
            guard.check(_enode(ids[2], "10.0.0.3"), bucket_index=7)
            == REASON_SUBNET_BUCKET
        )
        # same /24, different bucket: fine
        assert guard.check(_enode(ids[2], "10.0.0.3"), bucket_index=8) is None

    def test_remove_frees_the_slot(self):
        guard = TableAdmission(ids_per_ip=1)
        first, second = _ids(2)
        guard.note_add(_enode(first, "9.9.9.9"), bucket_index=0)
        assert guard.check(_enode(second, "9.9.9.9"), 0) == REASON_IP_ID
        guard.note_remove(first)
        assert guard.check(_enode(second, "9.9.9.9"), 0) is None

    def test_on_reject_hook_fires_with_subnet(self):
        seen = []
        guard = TableAdmission(
            ids_per_ip=0, on_reject=lambda node, reason, subnet: seen.append(
                (node.ip, reason, subnet)
            )
        )
        guard.check(_enode(_ids(1)[0], "10.0.0.1"), 0)
        assert seen == [("10.0.0.1", REASON_IP_ID, "10.0.0.0/24")]

    def test_routing_table_rejects_before_replacement_cache(self):
        """A refused node must not linger in the replacement cache."""
        victim = _ids(1, seed=1)[0]
        guard = TableAdmission(ids_per_ip=1)
        table = RoutingTable.for_node_id(victim, admission=guard)
        accepted, refused = _ids(2, seed=2)
        table.add(_enode(accepted, "9.9.9.9"))
        table.add(_enode(refused, "9.9.9.9"))
        members = {node.node_id for node in table}
        assert accepted in members and refused not in members
        assert guard.total_rejections == 1


class TestSubnetBreakerDimension:
    def make(self, clock_value=None):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        trips = []
        board = PeerScoreboard(
            failure_threshold=3,
            cooldown=300.0,
            clock=clock,
            subnet_failure_threshold=4,
            subnet_cooldown=600.0,
            on_subnet_transition=lambda subnet, old, new: trips.append(
                (subnet, old, new)
            ),
        )
        return board, state, trips

    def test_swarm_burns_one_subnet_breaker(self):
        board, _, trips = self.make()
        swarm = _ids(4)
        for index, node_id in enumerate(swarm):
            assert board.allow(node_id, f"66.66.66.{index + 1}")
            board.record_failure(node_id, f"66.66.66.{index + 1}")
        # four failures across four distinct phantoms: no *peer* breaker
        # reached its threshold, but the shared /24 breaker tripped
        assert board.state(swarm[0]) is BreakerState.CLOSED
        assert board.subnet_state("66.66.66.200") is BreakerState.OPEN
        assert not board.allow(_ids(1, seed=9)[0], "66.66.66.99")
        assert board.open_subnets == ("66.66.66.0/24",)
        assert ("66.66.66.0/24", BreakerState.CLOSED, BreakerState.OPEN) in trips

    def test_other_subnets_unaffected(self):
        board, _, _ = self.make()
        for index, node_id in enumerate(_ids(4)):
            board.record_failure(node_id, f"66.66.66.{index + 1}")
        assert board.allow(_ids(1, seed=9)[0], "10.0.0.1")

    def test_half_open_probe_not_wedged_by_disagreement(self):
        """Peer HALF_OPEN + subnet OPEN must not consume the peer probe."""
        board, state, _ = self.make()
        peer = _ids(1)[0]
        for _ in range(3):
            board.record_failure(peer, "66.66.66.1")  # peer OPEN at t=0
        for index, node_id in enumerate(_ids(4, seed=7)):
            board.record_failure(node_id, "66.66.66.2")  # subnet OPEN too
        state["now"] = 301.0  # peer cooldown over, subnet (600s) still open
        assert not board.allow(peer, "66.66.66.1")
        state["now"] = 601.0  # both HALF_OPEN: the probe goes through now
        assert board.allow(peer, "66.66.66.1")
        board.record_success(peer, "66.66.66.1")
        assert board.state(peer) is BreakerState.CLOSED
        assert board.subnet_state("66.66.66.1") is BreakerState.CLOSED


class TestSchemaV3:
    def test_migration_chain_reaches_current_version(self):
        version = 1
        while version in MIGRATIONS:
            version += 1
        assert version == SCHEMA_VERSION == 4  # v4: the reshard record of older crawls

    def test_v1_and_v2_lines_still_parse(self):
        for version in (1, 2):
            line = (
                '{"v": %d, "type": "breaker", "ts": 5.0,'
                ' "node_id": "00", "old": "closed", "new": "open"}' % version
            )
            event = Event.from_json(line)
            assert event.v == SCHEMA_VERSION
            assert event.fields.get("scope") is None  # peer-scope default

    def test_v3_events_replay_into_forensic_counters(self):
        events = [
            Event("crawler", 0.0, {"node_id": "ab" * 64, "name": "nf-0"}),
            Event(
                "table_admission",
                1.0,
                {
                    "node_id": "cd" * 64,
                    "ip": "66.66.66.6",
                    "reason": "ip-id-limit",
                    "subnet": "66.66.66.0/24",
                },
            ),
            Event(
                "breaker",
                2.0,
                {
                    "scope": "subnet",
                    "subnet": "66.66.66.0/24",
                    "old": "closed",
                    "new": "open",
                },
            ),
        ]
        replayed = replay(events)
        assert replayed.crawler_ids == {bytes.fromhex("ab" * 64)}
        assert replayed.crawler_names[bytes.fromhex("ab" * 64)] == "nf-0"
        assert replayed.admission_rejections == {"ip-id-limit": 1}
        assert replayed.rejected_subnets == {"66.66.66.0/24": 1}
        assert replayed.subnet_breaker_trips == {"66.66.66.0/24": 1}
        # forensic records never fabricate peer timelines
        assert not replayed.timelines


class TestDetectEclipseEmptySafety:
    def test_empty_replay_renders_no_data(self):
        detection = detect_eclipse(ReplayedCrawl())
        assert detection.observed_nodes == 0
        assert not detection.alarm
        rendered = render_eclipse(detection)
        assert "(no data: journal carries no peer observations)" in rendered
        # byte-stable: rendering twice is identical
        assert rendered == render_eclipse(detect_eclipse(ReplayedCrawl()))

    def test_failed_dials_only_journal_renders_no_data(self):
        events = [
            Event(
                "dial",
                float(ts),
                {
                    "node_id": "ee" * 64,
                    "ip": "10.0.0.1",
                    "outcome": "timeout",
                    "stage": "connect",
                    "duration": 15.0,
                },
            )
            for ts in range(3)
        ]
        replayed = replay(events)
        detection = detect_eclipse(replayed)
        rendered = render_eclipse(detection)
        assert rendered.startswith("Eclipse detection")
        assert rendered == render_eclipse(detect_eclipse(replayed))
