"""The crawl record's memory budget: bytes a replayed peer costs.

Every table and figure reads the node database, one ``NodeEntry`` per
node ID, and a replay holds a ``PeerTimeline`` beside each.  Their cost
is pinned here as a slope, the way ``test_world_budget.py`` pins a built
node's: ``tracemalloc``'s bytes still held after replaying a journal of
1 000 peers, less those for 500 peers, over 500.  Each peer answers 16
full-harvest dials (HELLO and STATUS each time) with a different latency
per dial, so the record carries its 16 latency samples, 15 sighting gaps,
one client string and one capability list — the shape of a peer a long
crawl keeps finding.  Each replay runs in a fresh interpreter.

The same file checks what the compact layout must keep: the live and the
replayed entries of one crawl are equal, a dump loads back equal, and an
older dump (which carried ``status_days``) still loads.
"""

import json
import os
import subprocess
import sys
from array import array

from repro.analysis.ingest import replay_journals
from repro.nodefinder.database import NodeDB
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPLAY = """
import sys, tracemalloc
from repro.analysis.ingest import replay_journal
from repro.telemetry import Event, EventJournal

peers, path = int(sys.argv[1]), sys.argv[2]
journal = EventJournal.open(path)
ts = 10.0
for round_ in range(16):
    for peer in range(peers):
        node_id = f"{peer:04x}" * 32
        ts += 0.01
        journal.emit(Event("dial", ts, {
            "node_id": node_id, "ip": f"10.{peer // 250}.{peer % 250}.1",
            "tcp_port": 30303, "connection_type": "dynamic-dial",
            "outcome": "full-harvest", "latency": 0.05 + round_ * 0.001 + peer * 1e-6,
            "duration": 0.4, "started": ts - 0.4, "attempt": 1,
        }))
        journal.emit(Event("hello", ts, {
            "node_id": node_id,
            "client_id": f"Geth/v1.8.{peer % 12}-stable/linux-amd64/go1.10.3",
            "capabilities": [["eth", 62], ["eth", 63]], "listen_port": 30303,
        }))
        journal.emit(Event("status", ts, {
            "node_id": node_id, "network_id": 1, "genesis_hash": "d4" * 32,
            "best_hash": "dd" * 32, "best_block": 5_000_000 + round_,
            "head_height": 5_000_100 + round_, "total_difficulty": 7,
        }))
journal.close()
tracemalloc.start()
replayed = replay_journal(path)
retained = tracemalloc.get_traced_memory()[0]
assert not replayed.skipped and len(replayed.db) == len(replayed.timelines) == peers
print(retained)
"""

#: a slotted entry with packed latencies and an interned connection-type
#: set, a slotted timeline with packed gaps, the three dict slots that key
#: them — no per-peer copy of a client string or a capability list
BUDGET_BYTES_PER_PEER = 2304


def _retained_bytes(peers: int, directory) -> int:
    return int(
        subprocess.run(
            [sys.executable, "-c", _REPLAY, str(peers), str(directory / f"{peers}.jsonl")],
            env=dict(os.environ, PYTHONPATH=_SRC),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )


def test_a_replayed_peer_costs_under_2_304_bytes(tmp_path):
    per_peer = (_retained_bytes(1000, tmp_path) - _retained_bytes(500, tmp_path)) / 500
    assert 0 < per_peer < BUDGET_BYTES_PER_PEER


def _smoke_crawl(directory):
    """The perf benchmark's smoke inputs: 300 nodes, 4 shards, 0.05 days."""
    population = PopulationConfig(total_nodes=300, seed=2018, measurement_days=1.0)
    world = SimWorld(WorldConfig(population=population, seed=7))
    return run_fleet(
        world,
        instance_count=1,
        days=0.05,
        config=NodeFinderConfig(seed=1, shards=4),
        telemetry_dir=directory,
    )


def test_live_and_replayed_entries_are_equal_and_packed(tmp_path):
    fleet = _smoke_crawl(tmp_path)
    live = fleet.merged_db
    replayed = replay_journals(fleet.journal_paths)
    assert not replayed.skipped and len(replayed.db) == len(live) > 0
    for entry in live:
        assert replayed.db.get(entry.node_id) == entry
    for db in (live, replayed.db):
        assert all(type(entry.latencies) is array for entry in db)
        assert any(len(entry.latencies) > 1 for entry in db)
    assert all(type(t.sighting_gaps) is array for t in replayed.timelines.values())


def test_a_dump_loads_back_equal(tmp_path):
    db = _smoke_crawl(tmp_path).merged_db
    path = tmp_path / "nodes.jsonl"
    assert db.dump_jsonl(str(path)) == len(db)
    loaded = NodeDB.load_jsonl(str(path))
    assert len(loaded) == len(db)
    for entry in db:
        assert loaded.get(entry.node_id) == entry
    assert "status_days" not in path.read_text(encoding="utf-8")


def test_an_older_dump_with_status_days_loads(tmp_path):
    record = {
        "node_id": "ab" * 64, "ips": ["10.0.0.1"], "tcp_port": 30303,
        "first_seen": 100.0, "last_seen": 100.0, "last_attempt": 100.0,
        "last_success": 100.0, "sessions": 1,
        "connection_types": ["dynamic-dial"], "client_id": "Geth/v1.8.2",
        "capabilities": [["eth", 63]], "network_id": 1,
        "genesis_hash": "d4" * 32, "best_hash": "dd" * 32, "best_block": 5,
        "head_at_status": 5, "total_difficulty": 7, "dao_side": "supports",
        "outbound_success": True, "latencies": [0.05, 0.07],
        "status_days": [0], "disconnects": {"Too many peers": 1},
    }
    path = tmp_path / "older.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    entry = NodeDB.load_jsonl(str(path)).get(bytes.fromhex("ab" * 64))
    assert entry.connection_types == {"dynamic-dial"}
    assert entry.latencies == array("d", [0.05, 0.07])
    assert entry.median_latency == 0.07
    assert entry.capabilities == [("eth", 63)]
    assert entry.disconnects == {"Too many peers": 1}
