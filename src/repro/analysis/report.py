"""Canonical plain-text crawl report: the paper's headline deliverables.

One rendering path shared by ``nodefinder analyze`` and the golden-file
regression tests, so the same :class:`~repro.nodefinder.database.NodeDB`
— whether filled by a crawl or replayed from its measurement journal —
produces byte-identical output.
Ties in every ranked table are broken lexicographically, so the
rendering is independent of entry iteration order.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.churn import churn_report
from repro.analysis.clients import client_share_table, parse_client_id
from repro.analysis.ecosystem import network_stats, service_table, useless_fraction
from repro.analysis.freshness import freshness_cdf
from repro.nodefinder.database import NodeDB
from repro.render import format_table

#: Figure 12 sighting-interval histogram bucket edges, in seconds
SIGHTING_BUCKETS = (
    ("<= 1 min", 60.0),
    ("<= 10 min", 600.0),
    ("<= 30 min", 1800.0),
    ("<= 1 h", 3600.0),
    ("<= 6 h", 6 * 3600.0),
    ("<= 24 h", 24 * 3600.0),
    ("> 24 h", float("inf")),
)


def _ranked(rows: list) -> list:
    """Stable order for (key, count, share) rows: count desc, key asc."""
    return sorted(rows, key=lambda row: (-row[1], str(row[0])))


def render_table1(db: NodeDB) -> str:
    """Table 1: Disconnect reasons received, cross-tabbed by client family.

    Counts come from every remote Disconnect the crawler recorded against
    a node (``NodeEntry.disconnects``); columns are the five busiest
    client families plus an aggregate ``other`` column, rows are reasons
    — both ranked by total count with lexicographic tie-breaks, so the
    table is independent of entry iteration order.
    """
    reason_totals: dict[str, int] = {}
    family_totals: dict[str, int] = {}
    cells: dict[tuple[str, str], int] = {}
    for entry in db:
        if not entry.disconnects:
            continue
        family = (
            parse_client_id(entry.client_id).family
            if entry.client_id
            else "unknown"
        )
        for reason, count in entry.disconnects.items():
            reason_totals[reason] = reason_totals.get(reason, 0) + count
            family_totals[family] = family_totals.get(family, 0) + count
            cells[(reason, family)] = cells.get((reason, family), 0) + count
    top_families = sorted(
        family_totals, key=lambda family: (-family_totals[family], family)
    )[:5]
    spill = [family for family in family_totals if family not in top_families]
    columns = top_families + (["other"] if spill else [])
    rows = []
    for reason in sorted(
        reason_totals, key=lambda reason: (-reason_totals[reason], reason)
    ):
        row: list = [reason]
        for family in top_families:
            row.append(cells.get((reason, family), 0))
        if spill:
            row.append(
                sum(cells.get((reason, family), 0) for family in spill)
            )
        row.append(reason_totals[reason])
        rows.append(row)
    return format_table(
        "Disconnect reasons by client (Table 1)",
        ["reason"] + columns + ["total"],
        rows,
    )


def render_sightings(timelines: Iterable) -> str:
    """Figure 12: distribution of intervals between repeat sightings.

    Takes the :class:`~repro.analysis.ingest.PeerTimeline` values of a
    replayed journal and histograms every gap between consecutive live
    sightings of the same peer — the re-dial cadence the §7.3 churn and
    staleness readings rest on.
    """
    gaps: list[float] = []
    repeat_peers = 0
    for timeline in timelines:
        if timeline.sighting_gaps:
            repeat_peers += 1
            gaps.extend(timeline.sighting_gaps)
    lines = [
        "Sighting intervals (Figure 12)",
        "------------------------------",
        f"peers sighted more than once {repeat_peers}",
        f"total repeat sightings       {len(gaps)}",
    ]
    if gaps:
        ordered = sorted(gaps)
        median = ordered[len(ordered) // 2]
        lines.append(f"median interval (seconds)    {median:.1f}")
        lines.append("interval histogram:")
        total = len(gaps)
        previous = 0.0
        for label, upper in SIGHTING_BUCKETS:
            count = sum(1 for gap in gaps if previous <= gap < upper)
            previous = upper
            share = count / total
            bar = "#" * int(30 * share)
            lines.append(f"  {label:<10} {count:>8}  {share:7.1%} {bar}")
    return "\n".join(lines)


def render_table3(db: NodeDB) -> str:
    """Table 3: primary DEVp2p service per HELLO-able node."""
    return format_table(
        "DEVp2p services (Table 3)",
        ["service", "count", "share"],
        _ranked(service_table(db)),
    )


def render_figure9(db: NodeDB) -> str:
    """Figure 9: the network/genesis-hash ecosystem view."""
    stats = network_stats(db)
    lines = [
        "Networks (Figure 9)",
        "-------------------",
        f"STATUS-bearing nodes    {stats.status_nodes}",
        f"distinct network ids    {stats.distinct_network_ids}",
        f"distinct genesis hashes {stats.distinct_genesis_hashes}",
        f"single-peer networks    {stats.single_peer_networks}",
        f"Mainnet nodes           {stats.mainnet_nodes}  "
        f"(share {stats.mainnet_share:.1%})",
        f"Classic nodes           {stats.classic_nodes}",
        f"fake-Mainnet peers      {stats.fake_mainnet_peers} "
        f"on {stats.fake_mainnet_networks} networks",
        f"useless-peer fraction   {useless_fraction(db):.1%}",
        "top networks by peers:",
    ]
    shares = sorted(
        stats.network_shares, key=lambda row: (-row[1], str(row[0]))
    )
    for network_id, share in shares:
        lines.append(f"  network {network_id:<12} {share:7.1%}")
    return "\n".join(lines)


def render_table4(db: NodeDB) -> str:
    """Table 4: client families over verified Mainnet nodes."""
    return format_table(
        "Mainnet clients (Table 4)",
        ["client", "count", "share"],
        _ranked(client_share_table(db.mainnet_nodes())),
    )


def render_freshness(db: NodeDB, head_height: int = 0) -> str:
    """Figure 14: freshness CDF of Mainnet nodes against the chain head.

    ``head_height`` is the fallback reference for entries whose STATUS
    did not record the contemporary head (pre-v2 journals).
    """
    report = freshness_cdf(db, head_height)
    lines = [
        "Node freshness (Figure 14)",
        "--------------------------",
        f"Mainnet nodes with best block {report.total}",
        f"stale (> 500 blocks behind)   {report.stale}  "
        f"({report.stale_fraction:.1%})",
        f"stuck at first post-Byzantium {report.stuck_at_byzantium}",
    ]
    if report.cdf_points:
        lines.append("lag CDF:")
        for lag, cdf in report.cdf_points:
            lines.append(f"  <= {lag:>9,} blocks  {cdf:7.1%}")
    return "\n".join(lines)


def render_churn(db: NodeDB, total_days: float) -> str:
    """§7.3 churn headline numbers over the crawl window."""
    report = churn_report(db, total_days)
    return "\n".join(
        [
            "Churn (§7.3)",
            "------------",
            f"responding nodes        {report.total_nodes}",
            f"mean daily churn        {report.mean_daily_churn:.1%}",
            f"median lifetime (hours) {report.median_lifetime_hours:.1f}",
            f"always-on core          {report.always_on}",
        ]
    )


def render_eclipse(detection) -> str:
    """Eclipse-detection section: the forensic verdict of
    :func:`repro.analysis.eclipse.detect_eclipse` over a replayed
    journal.  Renders a deterministic "(no data)" body when the journal
    carried nothing to score, so empty and failed-dials-only crawls
    still produce byte-stable output.
    """
    lines = [
        "Eclipse detection",
        "-----------------",
        f"observed peers               {detection.observed_nodes}",
    ]
    if detection.observed_nodes == 0:
        lines.append("(no data: journal carries no peer observations)")
        return "\n".join(lines)
    lines.append(
        f"densest /24 share            {detection.top_subnet_share:7.1%}"
    )
    lines.append(
        f"densest /24 dial share       {detection.hostile_dial_share:7.1%}"
    )
    if detection.bucket_skew > 0:
        lines.append(
            f"near-bucket share (<= {detection.near_bucket_threshold})    "
            f"{detection.near_bucket_share:7.1%}  "
            f"(natural {detection.expected_near_share:.1%}, "
            f"skew {detection.bucket_skew:.1f}x)"
        )
    else:
        lines.append(
            "near-bucket share            (no crawler identity on record)"
        )
    lines.append(
        f"table-admission rejections   "
        f"{detection.total_admission_rejections}"
    )
    for reason, count in sorted(detection.admission_rejections.items()):
        lines.append(f"  {reason:<22} {count:>8}")
    lines.append(
        f"subnet breaker trips         {detection.subnet_breaker_trips}"
    )
    if detection.top_subnets:
        lines.append("densest prefixes:")
        for subnet, count, share in detection.top_subnets:
            lines.append(f"  {subnet:<18} {count:>6} nodes  {share:7.1%}")
    if detection.rejected_subnets:
        lines.append("most-refused prefixes:")
        for subnet, count in detection.rejected_subnets:
            lines.append(f"  {subnet:<18} {count:>6} rejections")
    if detection.alarm:
        lines.append("ALARM: eclipse fingerprints present")
        for trigger in detection.triggers:
            lines.append(f"  - {trigger}")
    else:
        lines.append("verdict: no eclipse fingerprints above thresholds")
    return "\n".join(lines)


def render_crawl_report(
    db: NodeDB,
    head_height: int = 0,
    total_days: Optional[float] = None,
) -> str:
    """The full analyze output: Table 1, Table 3, Figure 9, Table 4,
    Figure 14, and — when the crawl spans days — the churn summary."""
    sections = [
        render_table1(db),
        render_table3(db),
        render_figure9(db),
        render_table4(db),
        render_freshness(db, head_height),
    ]
    if total_days is not None and total_days >= 2:
        sections.append(render_churn(db, total_days))
    return "\n\n".join(sections)
