"""What a simulated crawl writes, byte for byte.

The benchmark's smoke-scale sims (300 nodes, 0.05 sim-days, crawler seed 1,
population and world seeds 2018 and 7), unsharded and on four static
shards: every segment file's sha256 is pinned, so a change to how records
are encoded, placed or ordered shows here even when every reader still
parses the result.  The writer hands the journal one write per dial — the
dial record and whatever HELLO / STATUS / DAO / DISCONNECT records it
produced — and one per any other record.
"""

import hashlib

import pytest

from repro.nodefinder import shard
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import EventJournal, read_events

#: segment file -> sha256, per shard count
PINNED = {
    1: {
        "nodefinder-0.jsonl":
            "7273ee5ed75263fade627eba675e7fd12e3d93fb00ed43f0d6716a9b6e615eb5",
    },
    4: {
        "nodefinder-0-shard0.jsonl":
            "55f517f62c87f9f7e1908a352cfc602e0514f24690f39a2e94eac4cb33c38057",
        "nodefinder-0-shard1.jsonl":
            "397d02fd745e83cd933d63da6d493b943e379ef450785e6f12216555f1076977",
        "nodefinder-0-shard2.jsonl":
            "719ecca0ddb437e2020039c869d8099a21926d31b6f04e716308c0d8964d3e4f",
        "nodefinder-0-shard3.jsonl":
            "626c3f30cd0eb628e9864c3574c85ccdff6cf1eec94f00468d9588ae54ea479b",
    },
}

#: the records that ride in their dial's write
WITH_THE_DIAL = {"hello", "status", "dao", "disconnect"}


class _CountingFile:
    """A segment file that counts the writes it is handed."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return self._stream.write(text)

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()


@pytest.fixture
def counted_segments(monkeypatch):
    """Every segment the crawl opens, with its file wrapped to count writes."""
    opened = {}

    class CountingJournal(EventJournal):
        @classmethod
        def open(cls, path):
            counter = _CountingFile(open(path, "a", encoding="utf-8"))
            journal = cls(counter)
            journal._owns_stream = True
            opened[path.name] = counter
            return journal

    monkeypatch.setattr(shard, "EventJournal", CountingJournal)
    return opened


@pytest.mark.parametrize("shards", sorted(PINNED))
def test_smoke_crawl_segments_are_byte_identical_and_one_write_per_dial(
    shards, tmp_path, counted_segments
):
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=300, seed=2018, measurement_days=1.0
            ),
            seed=7,
        )
    )
    fleet = run_fleet(
        world,
        instance_count=1,
        days=0.05,
        config=NodeFinderConfig(seed=1, shards=shards),
        telemetry_dir=tmp_path,
    )
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in fleet.journal_paths
    }
    assert digests == PINNED[shards]
    riders = 0
    for path in fleet.journal_paths:
        types = [event.type for event in read_events(path)]
        alone = sum(1 for kind in types if kind not in WITH_THE_DIAL)
        assert counted_segments[path.name].writes == alone, path.name
        riders += len(types) - alone
    assert riders > 0  # some dials did write several records at once
