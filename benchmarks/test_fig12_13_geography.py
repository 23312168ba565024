"""Figures 12-13: geographic/AS distribution and latency CDFs (§7.2).

Paper shape: 43.2% of Mainnet nodes in the US, 12.9% in China; the top 8
ASes — all cloud providers — hold 44.8% of nodes; the latency CDF is
comparable to other P2P networks but shifted toward datacenter-grade
round-trip times versus 2002 Gnutella's residential links.
"""

from conftest import emit

from repro.analysis.geography import geolocate, latency_report
from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_fig12_geography(benchmark, paper_crawl):
    mainnet = paper_crawl.db.mainnet_nodes()
    report = benchmark(geolocate, paper_crawl.world, mainnet)
    country_rows = [(c, f"{s:.3f}") for c, s in report.country_shares[:12]]
    as_rows = [(a, f"{s:.3f}") for a, s in report.as_shares[:8]]
    lines = [
        format_table("Figure 12 — countries (Mainnet nodes)",
                     ["country", "share"], country_rows),
        format_table("Top ASes", ["AS", "share"], as_rows),
        side_by_side(dict(report.country_shares).get("US", 0),
                     reference.US_NODE_FRACTION, "US share"),
        side_by_side(dict(report.country_shares).get("CN", 0),
                     reference.CN_NODE_FRACTION, "CN share"),
        side_by_side(report.top8_as_fraction, reference.TOP8_AS_FRACTION,
                     "top-8 AS share"),
        f"cloud-hosted fraction: {report.cloud_fraction:.1%} "
        "(paper: 'primarily in cloud environments')",
    ]
    emit("fig12_geography", "\n".join(lines))
    shares = dict(report.country_shares)
    assert report.country_shares[0][0] == "US"
    assert 0.36 < shares["US"] < 0.50
    assert 0.08 < shares["CN"] < 0.18
    assert 0.35 < report.top8_as_fraction < 0.55
    assert report.cloud_fraction > 0.4


def test_fig13_latency_cdf(benchmark, paper_crawl):
    report = benchmark(latency_report, paper_crawl.db)
    rows = [
        (f"{x * 1000:.0f}ms", f"{eth:.2f}", f"{gnutella:.2f}", f"{bitcoin:.2f}")
        for x, eth, gnutella, bitcoin in report.rows()
    ]
    emit(
        "fig13_latency_cdf",
        format_table("Figure 13 — latency CDFs",
                     ["latency", "ethereum (ours)", "gnutella 2002", "bitcoin 2018"],
                     rows)
        + f"\nour median peer RTT: {report.median * 1000:.0f}ms",
    )
    cdf = dict((x, v) for x, v, _, _ in report.rows())
    # CDF is monotone and spans (0, 1)
    values = [v for _, v, _, _ in report.rows()]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.95
    # Ethereum (cloudy, 2018) is faster than 2002 Gnutella at mid-range
    gnutella = [g for _, _, g, _ in report.rows()]
    index_200ms = report.points.index(0.2)
    assert values[index_200ms] > gnutella[index_200ms]
    # median in a plausible 20-250ms band
    assert 0.02 < report.median < 0.25
