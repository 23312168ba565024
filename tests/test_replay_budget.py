"""Replay's memory budget: the peak is set by the answer, not by the log.

``replay_journals`` streams time-ordered shard files through a k-way
merge straight into the fold, so what it holds at any moment is the
crawl products, one decoded event per file and one open observation —
the dial whose record group has not ended yet.  ``tracemalloc`` turns
that into numbers: a change that goes back to materialising the log (a
list of events, a sort of the union) fails here as a peak that grows with
the journal, and one that holds an observation open per peer fails as a
peak above what the answer retains — before either shows up as
``peak_rss_mb`` in the benchmark.
"""

import tracemalloc

from repro.analysis.ingest import replay_journals
from repro.telemetry import Event, EventJournal

PEERS = 200
#: decoder scratch, two look-ahead events, the line buffers of two files,
#: the one open observation
SLACK_BYTES = 64 * 1024


def _write_crawl(directory, dials):
    """Two shard files, ``dials`` dials over ``PEERS`` peers, ``ts`` rising.

    Every peer answers its first dial in full (HELLO + STATUS) and times
    out afterwards (no latency sample, no sighting) — the shape of a real
    crawl's log, and the one that separates the two costs: the NodeDB and
    the timelines are complete after the first round, the log keeps
    growing.
    """
    paths = [directory / f"crawl-{dials}-shard{k}.jsonl" for k in (0, 1)]
    journals = [EventJournal.open(path) for path in paths]
    for index in range(dials):
        peer = index % PEERS
        node_id = f"{peer:04x}" * 32
        journal = journals[peer % 2]
        ts = 10.0 + index * 0.5
        first = index < PEERS
        journal.emit(Event("dial", ts, {
            "node_id": node_id, "ip": f"10.0.{peer // 250}.{peer % 250}",
            "tcp_port": 30303, "connection_type": "dynamic-dial",
            "outcome": "full-harvest" if first else "timeout",
            "latency": 0.05 if first else 0.0, "duration": 0.4,
            "started": ts - 0.4, "attempt": 1,
        }))
        if first:
            journal.emit(Event("hello", ts, {
                "node_id": node_id, "client_id": f"Geth/v1.8.{peer}",
                "capabilities": [["eth", 63]], "listen_port": 30303,
            }))
            journal.emit(Event("status", ts, {
                "node_id": node_id, "network_id": 1, "genesis_hash": "cc" * 32,
                "best_hash": "dd" * 32, "best_block": 4500000 + peer,
                "head_height": 4500100, "total_difficulty": 7,
            }))
    for journal in journals:
        journal.close()
    return paths


def _traced_replay(paths):
    """(events replayed, bytes still held by the result, peak bytes)."""
    tracemalloc.start()
    try:
        replayed = replay_journals(paths)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not replayed.skipped and len(replayed.db) == PEERS
    return replayed.events_replayed, retained, peak


def test_replay_peak_is_set_by_the_answer_not_the_log(tmp_path):
    events, retained, peak = _traced_replay(_write_crawl(tmp_path, 2_000))
    assert events == 2_000 + 2 * PEERS
    assert peak <= retained + SLACK_BYTES, (retained, peak)

    more_events, more_retained, more_peak = _traced_replay(
        _write_crawl(tmp_path, 8_000)
    )
    assert more_events == 8_000 + 2 * PEERS
    assert more_peak <= more_retained + SLACK_BYTES, (more_retained, more_peak)
    # four times the log, the same 200 peers: the peak does not follow it
    assert more_peak < 1.10 * peak, (peak, more_peak)
