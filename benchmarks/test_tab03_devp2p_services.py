"""Table 3 and §6.1: DEVp2p service mix and the useless-peer fraction.

Paper shape: eth is 93.98% of HELLO-able nodes, with Swarm (bzz), light
protocols (les/pip), Whisper (shh), and competing chains (exp, istanbul,
dbix, mc, ele) filling the tail — yet 48.2% of all peers are useless to a
Mainnet client.
"""

from conftest import emit

from repro.analysis.ecosystem import service_table, useless_fraction
from repro.render import format_table, side_by_side
from repro.datasets import reference


def test_tab03_devp2p_services(benchmark, paper_crawl):
    rows = benchmark(service_table, paper_crawl.db)
    paper = reference.TABLE3_SERVICES
    table_rows = [
        (service, count, f"{share:.4f}", f"{paper.get(service, (0, 0.0))[1]:.4f}")
        for service, count, share in rows
    ]
    useless = useless_fraction(paper_crawl.db)
    lines = [
        format_table(
            "Table 3 — DEVp2p services",
            ["service", "count", "share", "paper share"],
            table_rows,
        ),
        side_by_side(useless, reference.USELESS_PEER_FRACTION,
                     "§6.1 useless-peer fraction"),
    ]
    emit("tab03_devp2p_services", "\n".join(lines))
    shares = {service: share for service, _, share in rows}
    assert rows[0][0] == "eth"
    assert 0.90 < shares["eth"] < 0.97          # paper: 93.98%
    assert shares.get("bzz", 0) > shares.get("shh", 0)  # Swarm > Whisper
    # the §6.1 headline: fewer than half of peers are productive
    assert 0.40 < useless < 0.58                 # paper: 48.2%
    # minor services exist but stay minor
    for service in ("les", "bzz"):
        assert 0 < shares.get(service, 0) < 0.05
