"""Acceptance test for the telemetry tentpole: a real localhost crawl with
the full ``Telemetry`` facade attached, then cross-checking the three views
of the same run — the folded DialResults in the NodeDB, the JSONL journal,
and the health page folded from it — against each other."""

import asyncio
import io

import pytest

from repro.crypto.keys import PrivateKey
from repro.fullnode import start_localhost_network
from repro.nodefinder.wire import crawl_targets
from repro.telemetry import EventJournal, Telemetry, read_events, render_top


def run(coroutine):
    return asyncio.run(coroutine)


# every stage the wire crawler traces
FULL_HARVEST_STAGES = {"connect", "rlpx", "hello", "status", "dao"}


class TestCrawlWithTelemetry:
    def crawl(self):
        """Crawl 2 live nodes plus one dead (refused) target."""

        async def scenario():
            nodes = await start_localhost_network(3, blocks=8)
            dead = nodes[-1].enode
            stream = io.StringIO()
            telemetry = Telemetry(journal=EventJournal(stream))
            try:
                targets = [n.enode for n in nodes]
                await nodes[-1].stop()  # its port now refuses: one failure
                db = await crawl_targets(
                    targets, PrivateKey(51), dial_timeout=1.5, telemetry=telemetry
                )
            finally:
                for node in nodes[:-1]:
                    await node.stop()
            events = read_events(stream.getvalue().splitlines())
            return db, events, telemetry, dead

        return run(scenario())

    def test_journal_dials_match_dialresults(self):
        db, events, telemetry, dead = self.crawl()
        dials = [e for e in events if e.type == "dial"]
        assert len(dials) == 3
        by_node = {e.fields["node_id"]: e for e in dials}
        assert set(by_node) == {entry.node_id.hex() for entry in db}
        # the dead node's dial is on record as a refused connect
        refused = by_node[dead.node_id.hex()]
        assert refused.fields["outcome"] == "refused"
        assert refused.fields["failure_stage"] == "connect"
        assert db.get(dead.node_id).sessions == 0
        # harvested nodes: the journal's HELLO/STATUS/DAO records carry the
        # same facts the NodeDB folded out of the DialResults
        for entry in db.nodes_with_status():
            node_id = entry.node_id.hex()
            assert by_node[node_id].fields["outcome"] == "full-harvest"
            [hello] = [
                e for e in events
                if e.type == "hello" and e.fields["node_id"] == node_id
            ]
            assert hello.fields["client_id"] == entry.client_id
            [status] = [
                e for e in events
                if e.type == "status" and e.fields["node_id"] == node_id
            ]
            assert status.fields["network_id"] == entry.network_id
            assert status.fields["genesis_hash"] == entry.genesis_hash.hex()
            [dao] = [
                e for e in events
                if e.type == "dao" and e.fields["node_id"] == node_id
            ]
            assert dao.fields["verdict"] == entry.dao_side
            # a full harvest closes with our own Client-quitting DISCONNECT
            [bye] = [
                e for e in events
                if e.type == "disconnect" and e.fields["node_id"] == node_id
            ]
            assert bye.fields["sent_by"] == "local"
            assert bye.fields["reason"] == 8

    def test_stage_spans_sum_to_dial_duration(self):
        _, events, _, dead = self.crawl()
        for event in (e for e in events if e.type == "dial"):
            stages = event.fields["stages"]
            duration = event.fields["duration"]
            if event.fields["node_id"] == dead.node_id.hex():
                # the refused dial dies inside connect: one open child,
                # auto-finished with the dial's outcome
                assert set(stages) == {"connect"}
                continue
            assert set(stages) == FULL_HARVEST_STAGES
            covered = sum(stages.values())
            # stages nest strictly inside the dial span...
            assert covered <= duration + 1e-9
            # ...and account for nearly all of it (only the disconnect
            # send and session teardown fall outside a stage)
            assert covered >= 0.5 * duration

    def test_funnel_counters_match_scoreboard(self):
        db, events, _, _ = self.crawl()
        # fold the scoreboard out of the NodeDB: who answered, who refused
        harvested = len(db.nodes_with_status())
        refused = len(db) - harvested
        assert (harvested, refused) == (2, 1)
        dials = [e for e in events if e.type == "dial"]
        outcomes = sorted(
            (e.fields["outcome"], e.fields.get("failure_stage")) for e in dials
        )
        assert outcomes == [("full-harvest", None)] * harvested + [
            ("refused", "connect")
        ] * refused
        # the page's funnel counts the same dials
        page = render_top([("crawl.jsonl", events)])
        assert f"full-harvest  {harvested}" in page
        assert f"refused       {refused}" in page
        # each full harvest timed every stage once; every dial timed connect
        timed = [stage for e in dials for stage in e.fields["stages"]]
        for stage in FULL_HARVEST_STAGES - {"connect"}:
            assert timed.count(stage) == harvested
        assert timed.count("connect") == len(db)

    def test_replay_reconstructs_live_nodedb(self):
        # tentpole round-trip: the journal alone rebuilds the NodeDB the
        # live crawl produced, entry for entry
        from repro.analysis.ingest import replay

        db, events, _, dead = self.crawl()
        replayed = replay(events)
        assert not replayed.skipped
        assert len(replayed.db) == len(db)
        for entry in db:
            mirror = replayed.db.get(entry.node_id)
            assert mirror == entry, entry.node_id.hex()
        # the timelines know who connected and who refused
        assert replayed.timeline(dead.node_id).outcomes["refused"] == 1
        for entry in db.nodes_with_status():
            timeline = replayed.timeline(entry.node_id)
            assert timeline.outcomes["full-harvest"] == 1
            assert timeline.first_seen == entry.first_seen

    def test_summary_renders_the_run(self):
        _, events, _, _ = self.crawl()
        summary = render_top([("crawl.jsonl", events)])
        assert "full-harvest" in summary
        assert "refused" in summary
