"""Golden-file regression tests for the journal-fed analysis pipeline.

``tests/data/golden_crawl.jsonl`` is a hand-crafted measurement journal
covering the ecosystem the paper describes: Geth/Parity Mainnet peers
(one stuck at the first post-Byzantium block), a DAO-opposing Classic
peer, a fake-Mainnet private network, les/bzz service nodes, a
HELLO-but-no-STATUS peer, refused/timeout dials with retry + breaker
records, one v1-schema line (pins the migration shim), and a
supervisor broadcast with no node_id.

The rendered Table 3 / Figure 9 / freshness-CDF snapshots live next to
it; regenerate them after an intentional rendering change with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_analysis_golden.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.ingest import replay_journal
from repro.analysis.report import (
    render_crawl_report,
    render_figure9,
    render_freshness,
    render_sightings,
    render_table1,
    render_table3,
)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "golden_crawl.jsonl"


@pytest.fixture(scope="module")
def replayed():
    return replay_journal(FIXTURE)


def check_golden(name: str, rendered: str) -> None:
    path = DATA / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(rendered + "\n", encoding="utf-8")
    assert path.exists(), f"{path} missing — run with UPDATE_GOLDENS=1"
    assert rendered + "\n" == path.read_text(encoding="utf-8")


class TestGoldenSnapshots:
    def test_table1(self, replayed):
        check_golden("golden_table1.txt", render_table1(replayed.db))

    def test_table3(self, replayed):
        check_golden("golden_table3.txt", render_table3(replayed.db))

    def test_sightings(self, replayed):
        check_golden(
            "golden_sightings.txt",
            render_sightings(replayed.timelines.values()),
        )

    def test_figure9(self, replayed):
        check_golden("golden_figure9.txt", render_figure9(replayed.db))

    def test_freshness_cdf(self, replayed):
        check_golden(
            "golden_freshness.txt", render_freshness(replayed.db, head_height=0)
        )

    def test_full_report_contains_all_sections(self, replayed):
        report = render_crawl_report(
            replayed.db, head_height=0,
            total_days=max(t.last_event for t in replayed.timelines.values()) / 86400,
        )
        for heading in (
            "Table 1", "Table 3", "Figure 9", "Table 4", "Figure 14", "Churn",
        ):
            assert heading in report


class TestFixtureSemantics:
    """The fixture replays to the ecosystem it was written to describe."""

    def test_replay_is_clean(self, replayed):
        assert not replayed.skipped
        assert replayed.event_counts["dial"] == replayed.dials_replayed == 14

    def test_v1_line_migrated_and_folded(self, replayed):
        entry = replayed.db.get(bytes.fromhex("0b" * 32))
        assert entry is not None
        assert entry.network_id == 7
        assert entry.best_block == 31337
        # v1 had no tcp_port field: replay falls back to the default
        assert entry.tcp_port == 0

    def test_classic_and_fake_mainnet_recognised(self, replayed):
        classic = replayed.db.get(bytes.fromhex("04" * 32))
        assert classic.dao_side == "opposes" and not classic.is_mainnet
        fake = replayed.db.get(bytes.fromhex("05" * 32))
        assert fake.network_id == 99 and not fake.is_mainnet

    def test_breaker_and_retry_on_refusing_peer(self, replayed):
        timeline = replayed.timelines.get(bytes.fromhex("09" * 32))
        assert timeline.outcomes["refused"] == 2
        assert timeline.retries == 1
        assert timeline.breaker_opens == 1
        assert timeline.bonds_failed == 1

    def test_churn_window_spans_two_days(self, replayed):
        last = max(timeline.last_event for timeline in replayed.timelines.values())
        assert last >= 2 * 86400
        survivor = replayed.timelines.get(bytes.fromhex("01" * 32))
        assert survivor.first_seen is not None and len(survivor.sighting_gaps) == 1
        assert max(survivor.sighting_gaps) >= 2 * 86400 - 3600
