"""Validation-report and record edge cases the figure benches rely on."""

import pytest

from repro.analysis.validation import ValidationReport, build_validation_report
from repro.nodefinder.records import CrawlStats, DayCounters
from repro.nodefinder.records import DialOutcome, DialResult


def dial(day_seconds, connection_type="dynamic-dial", outcome=DialOutcome.FULL_HARVEST,
         node_id=b"\x01" * 64):
    return DialResult(
        timestamp=day_seconds,
        node_id=node_id,
        ip="10.0.0.1",
        tcp_port=30303,
        connection_type=connection_type,
        outcome=outcome,
    )


class TestDayCounters:
    def test_merge(self):
        a, b = DayCounters(), DayCounters()
        a.discovery_attempts = 2
        a.nodes_dialed = {b"\x01"}
        b.discovery_attempts = 3
        b.nodes_dialed = {b"\x02"}
        b.disconnects_received["Too many peers"] = 4
        a.merge(b)
        assert a.discovery_attempts == 5
        assert a.nodes_dialed == {b"\x01", b"\x02"}
        assert a.disconnects_received["Too many peers"] == 4


class TestCrawlStatsEdges:
    def test_timeout_not_counted_as_responded(self):
        stats = CrawlStats()
        stats.record_dial(0, dial(10.0, outcome=DialOutcome.TIMEOUT))
        assert len(stats.days[0].nodes_dialed) == 1
        assert len(stats.days[0].nodes_responded) == 0

    def test_incoming_counted_separately(self):
        stats = CrawlStats()
        stats.record_dial(0, dial(10.0, connection_type="incoming"))
        day = stats.days[0]
        assert day.incoming_connections == 1
        assert day.dynamic_dial_attempts == 0
        assert len(day.nodes_dialed) == 0  # Figure 6 counts dials only

    def test_too_many_peers_counts_as_response(self):
        """A Too-many-peers DISCONNECT is still a responding node (Fig 7)."""
        from repro.devp2p.messages import DisconnectReason

        stats = CrawlStats()
        result = DialResult(
            timestamp=1.0,
            node_id=b"\x03" * 64,
            ip="10.0.0.2",
            tcp_port=30303,
            connection_type="dynamic-dial",
            outcome=DialOutcome.HELLO_THEN_DISCONNECT,
            disconnect_reason=DisconnectReason.TOO_MANY_PEERS,
        )
        stats.record_dial(0, result)
        assert len(stats.days[0].nodes_responded) == 1
        assert stats.days[0].disconnects_received[DisconnectReason.TOO_MANY_PEERS] == 1

    def test_series_handles_gap_days(self):
        stats = CrawlStats()
        stats.record_discovery(0)
        stats.record_discovery(3)
        series = stats.series("discovery_attempts")
        assert series == [(0, 1), (3, 1)]

    def test_total(self):
        stats = CrawlStats()
        stats.record_discovery(0, 5)
        stats.record_discovery(1, 7)
        assert stats.total("discovery_attempts") == 12


class TestValidationReportEdges:
    def test_empty_stats(self):
        report = build_validation_report(CrawlStats())
        assert report.discovery_per_day == []
        assert report.ratio_stability() == 0.0
        assert report.discovery_daily_average == 0.0

    def test_single_day(self):
        stats = CrawlStats()
        stats.record_discovery(0, 10)
        report = build_validation_report(stats, skip_first_days=0)
        assert report.discovery_daily_average == 10
        assert report.ratio_stability() == 0.0  # one point: trivially stable

    def test_unstable_ratio_detected(self):
        stats = CrawlStats()
        for day, dials in enumerate([10, 400, 3, 900]):
            stats.record_discovery(day, 100)
            for index in range(dials):
                stats.record_dial(day, dial(day * 86400.0 + index,
                                            node_id=bytes([day, index % 250]) * 32))
        report = build_validation_report(stats)
        assert report.ratio_stability() > 0.5

    def test_bootstrap_empty_series(self):
        report = build_validation_report(CrawlStats())
        assert report.bootstrap_series == []
        assert report.bootstrap_static_daily_average == 0.0
