"""Table 5: version mix per client family (§6.2).

Paper shape: 81.9% of Geth nodes run stable builds but only 56.2% of
Parity nodes do (Parity's weekly mixed-channel releases spread its
population across many beta builds); freshly-released versions hold tiny
shares; 3.5% of Geth nodes are still pre-Byzantium.
"""

from conftest import emit

from repro.analysis.clients import (
    pre_byzantium_fraction,
    stable_fraction,
    version_table,
)
from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_tab05_versions(paper_crawl):
    mainnet = paper_crawl.db.mainnet_nodes()
    geth_rows = version_table(mainnet, 'geth', 10)
    parity_rows = version_table(mainnet, "parity", 10)
    geth_stable = stable_fraction(mainnet, "geth")
    parity_stable = stable_fraction(mainnet, "parity")
    pre_byzantium = pre_byzantium_fraction(mainnet)
    lines = [
        format_table("Table 5 — top Geth versions",
                     ["version", "channel", "count", "share"], geth_rows),
        format_table("Table 5 — top Parity versions",
                     ["version", "channel", "count", "share"], parity_rows),
        side_by_side(geth_stable, reference.GETH_STABLE_FRACTION, "Geth stable fraction"),
        side_by_side(parity_stable, reference.PARITY_STABLE_FRACTION, "Parity stable fraction"),
        side_by_side(pre_byzantium, reference.GETH_PRE_BYZANTIUM_FRACTION,
                     "Geth pre-Byzantium (<v1.7.1) fraction"),
    ]
    emit("tab05_versions", "\n".join(lines))
    # the paper's key asymmetry: Geth's population is far more 'stable'
    assert geth_stable > parity_stable + 0.1
    assert 0.72 < geth_stable < 0.90        # paper: 81.9%
    assert 0.40 < parity_stable < 0.75      # paper: 56.2%
    # version sprawl: Parity's top-10 covers less of its population than
    # Geth's (sparser distribution, §6.2)
    geth_top_cover = sum(share for *_, share in geth_rows)
    parity_top_cover = sum(share for *_, share in parity_rows)
    assert len(parity_rows) >= 6
    # pre-Byzantium stragglers exist but are small
    assert 0.005 < pre_byzantium < 0.08     # paper: 3.5%
    # stable channels dominate Geth's top versions
    assert sum(1 for _, channel, *_ in geth_rows[:5] if channel == "stable") >= 3
