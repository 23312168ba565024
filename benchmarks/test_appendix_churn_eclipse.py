"""Appendix experiments: churn (§7.3) and table-takeover eclipses (§6.3/§9).

The paper flags churn as a likely driver of the stale third of the network
and cites two eclipse vectors — Marcus et al.'s post-reboot table flood and
the accidental Parity-metric eclipse.  These benches quantify both on our
substrate.
"""

from conftest import emit

from repro.analysis.churn import churn_report
from repro.analysis.eclipse import takeover_comparison
from repro.render import format_table


def test_appendix_churn(paper_crawl):
    report = churn_report(paper_crawl.db, paper_crawl.days)
    rows = [(f"day {day}", f"{rate:.2f}") for day, rate in report.daily_churn_rates]
    cdf_rows = [
        (f"{hours:.0f}h", f"{value:.2f}")
        for hours, value in report.lifetime_cdf([1, 6, 24, 72, 24 * 6])
    ]
    emit(
        "appendix_churn",
        format_table("§7.3 — daily churn rate (sanitised crawl)",
                     ["day", "churn"], rows)
        + "\n"
        + format_table("observed lifetime CDF", ["lifetime ≤", "CDF"], cdf_rows)
        + f"\nmedian observed lifetime: {report.median_lifetime_hours:.1f}h; "
        f"always-on core: {report.always_on}/{report.total_nodes} "
        "(Saroiu et al.: Napster/Gnutella median session ~1h; Ethereum's "
        "cloud-hosted core is far stickier)",
    )
    assert report.total_nodes > 200
    assert report.always_on > 0.2 * report.total_nodes  # sticky cloud core
    assert 0.0 < report.mean_daily_churn < 0.6


def test_appendix_eclipse():
    flushed, established = takeover_comparison(honest_nodes=300, attacker_ids=2000, lookups=100)
    rows = [
        ("post-reboot flood (Marcus et al.)", f"{flushed.table_share:.0%}",
         f"{flushed.lookup_share:.0%}", f"{flushed.eclipsed_lookups:.0%}"),
        ("established table (Kademlia defence)", f"{established.table_share:.0%}",
         f"{established.lookup_share:.0%}", f"{established.eclipsed_lookups:.0%}"),
    ]
    emit(
        "appendix_eclipse",
        format_table(
            "§6.3/§9 — routing-table takeover (2,000 attacker IDs from 2 IPs)",
            ["scenario", "table share", "lookup share", "fully eclipsed lookups"],
            rows,
        )
        + "\n(old-node-favouring eviction protects a running node; the "
        "reboot flush is the exploitable window)",
    )
    assert flushed.lookup_share > 0.8
    assert established.lookup_share < 0.7
    assert flushed.eclipsed_lookups > established.eclipsed_lookups
