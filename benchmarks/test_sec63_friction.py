"""§6.3: Geth/Parity discovery friction — the accidental eclipse.

Paper claim: Parity peers are "effectively useless" during Geth's
recursive FIND_NODE; in the worst case a Parity-saturated table stalls
discovery entirely.  We measure (a) one-hop FIND_NODE answer quality from
Geth-metric vs Parity-metric routing tables, and (b) full iterative-lookup
convergence through all-Geth, mixed, and all-Parity networks.
"""

from conftest import emit

from repro.analysis.distance import simulate_friction, simulate_lookup_convergence
from repro.render import format_table


def test_sec63_one_hop_friction(benchmark):
    report = benchmark.pedantic(
        simulate_friction,
        kwargs={"table_size": 400, "lookups": 200},
        rounds=1,
        iterations=1,
    )
    emit(
        "sec63_one_hop_friction",
        format_table(
            "§6.3 — one-hop FIND_NODE quality (same nodes, different table metric)",
            ["table", "mean improvement (bits)", "useful answers"],
            [
                ("geth", f"{report.geth_mean_improvement:.2f}",
                 f"{report.geth_useful_fraction:.0%}"),
                ("parity", f"{report.parity_mean_improvement:.2f}",
                 f"{report.parity_useful_fraction:.0%}"),
            ],
        ),
    )
    assert report.geth_mean_improvement > report.parity_mean_improvement
    assert report.geth_useful_fraction >= report.parity_useful_fraction


def test_sec63_lookup_convergence(benchmark):
    report = benchmark.pedantic(
        simulate_lookup_convergence,
        kwargs={"population": 600, "lookups": 120, "neighbors_per_node": 100},
        rounds=1,
        iterations=1,
    )
    rows = [
        (composition,
         f"{report.exact_hit[composition]:.0%}",
         f"{report.final_gap[composition]:.2f}")
        for composition in ("geth", "mixed", "parity")
    ]
    emit(
        "sec63_lookup_convergence",
        format_table(
            "§6.3 — iterative lookup convergence by network composition",
            ["network", "found true nearest", "final gap (bits)"],
            rows,
        )
        + "\n(an all-Parity network stalls short of targets — the paper's "
        "accidental-eclipse scenario)",
    )
    # ordering: geth >= mixed >= parity on exact hits
    assert report.exact_hit["geth"] >= report.exact_hit["mixed"]
    assert report.exact_hit["mixed"] >= report.exact_hit["parity"]
    # the all-Parity network is dramatically worse than all-Geth
    assert report.exact_hit["geth"] > report.exact_hit["parity"] + 0.2
    assert report.final_gap["parity"] > 3 * max(report.final_gap["geth"], 0.05)
