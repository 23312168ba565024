"""§5.4: data sanitisation — abusive node-ID factories.

Paper shape: 21.5% of all node IDs came from 0.3% of IPs; the worst IP
produced 42,237 identities of client ethereumjs-devp2p/v1.0.0 whose best
hash always equalled the genesis hash, 80% seen only once; the five-step
filter flags them, plus 242 scanner nodes.
"""

from collections import Counter

from conftest import emit

from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_sec54_sanitization(benchmark, paper_crawl):
    from repro.nodefinder.sanitize import find_abusive

    report = benchmark(find_abusive, paper_crawl.raw_db)
    world = paper_crawl.world
    true_factory_ips = {factory.spec.ip for factory in world.factories}
    flagged = report.abusive_ips
    per_ip = Counter()
    for entry in paper_crawl.raw_db:
        if entry.node_id in report.abusive_node_ids:
            for ip in entry.ips:
                per_ip[ip] += 1
    rows = [(ip, count, "yes" if ip in true_factory_ips else "NO (false positive)")
            for ip, count in per_ip.most_common(10)]
    lines = [
        format_table("§5.4 — flagged abusive IPs",
                     ["ip", "node IDs", "true factory?"], rows),
        side_by_side(report.abusive_fraction, reference.ABUSIVE_FRACTION,
                     "abusive share of node IDs"),
        f"flagged {len(flagged)} IPs of {len(true_factory_ips)} true factories; "
        f"scanners excluded: {len(paper_crawl.sanitization.scanner_node_ids)}",
        f"paper: {reference.ABUSIVE_NODE_IDS:,} node IDs on "
        f"{reference.ABUSIVE_IPS:,} IPs; flagship IP {reference.FLAGSHIP_ABUSIVE_IP_NODES:,} IDs",
    ]
    emit("sec54_sanitization", "\n".join(lines))
    # precision: every flagged IP is a true factory
    assert flagged <= true_factory_ips
    # recall: the flagship (always-on) factory is always caught
    assert world.factories[0].spec.ip in flagged
    # the flagged share is in the paper's ballpark at this scale
    assert 0.08 < report.abusive_fraction < 0.45  # paper: 21.5%
    # the flagship dominates, like 149.129.129.190 did
    top_ip, top_count = per_ip.most_common(1)[0]
    assert top_ip == world.factories[0].spec.ip
    assert top_count > 0.3 * len(report.abusive_node_ids)
    # scanner exclusion works (§5.4's 242 nodes: ours + foreign scanners)
    assert len(paper_crawl.sanitization.scanner_node_ids) >= len(
        paper_crawl.fleet.instances
    )
