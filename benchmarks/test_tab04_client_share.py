"""Table 4: client families among Mainnet nodes (§6.2).

Paper shape: Geth 76.6%, Parity 17.0%, an unofficial JavaScript client
third at ~5.2%, and ~30 other clients sharing the rest.
"""

from conftest import emit

from repro.analysis.clients import client_share_table
from repro.render import format_table
from repro.datasets import reference


def test_tab04_client_share(paper_crawl):
    mainnet = paper_crawl.db.mainnet_nodes()
    rows = client_share_table(mainnet)
    paper = dict(reference.CLIENT_SHARES)
    table_rows = [
        (family, count, f"{share:.3f}", f"{paper.get(family, 0.0):.3f}")
        for family, count, share in rows[:10]
    ]
    emit(
        "tab04_client_share",
        format_table(
            f"Table 4 — Mainnet clients ({len(mainnet)} nodes)",
            ["client", "count", "share", "paper"],
            table_rows,
        ),
    )
    shares = {family: share for family, _, share in rows}
    # the ranking and rough magnitudes
    assert rows[0][0] == "geth"
    assert rows[1][0] == "parity"
    assert rows[2][0] == "ethereumjs"
    assert 0.68 < shares["geth"] < 0.84        # paper: 76.6%
    assert 0.11 < shares["parity"] < 0.23      # paper: 17.0%
    assert 0.02 < shares["ethereumjs"] < 0.09  # paper: 5.2%
    # a long tail of minor clients exists
    assert len(rows) > 5
