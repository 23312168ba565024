"""Survey a simulated DEVp2p ecosystem the way the paper surveyed the real one.

Builds a scaled-down 2018 Ethereum world (services, networks, clients,
churn, NATed nodes, abusive node-ID factories), runs a NodeFinder fleet
over it for a few simulated days, sanitises the data per §5.4, and prints
the ecosystem tables (3, 4, 5) plus the Figure 9 and §6.1 headline numbers
next to the paper's values.

Run:  python examples/ecosystem_survey.py  (~1 minute)
"""

from repro.analysis.clients import (
    client_share_table,
    stable_fraction,
    version_table,
)
from repro.analysis.ecosystem import network_stats, service_table, useless_fraction
from repro.render import format_table, side_by_side
from repro.datasets import reference
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.sanitize import sanitize
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig


def main() -> None:
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(total_nodes=1500, measurement_days=4.0, seed=7)
        )
    )
    fleet = run_fleet(
        world,
        instance_count=2,
        days=4.0,
        config=NodeFinderConfig(discovery_interval=45.0),
    )
    raw_db = fleet.merged_db
    db, report = sanitize(raw_db, fleet.own_node_ids())
    print(f"crawl: {len(raw_db)} node IDs seen, "
          f"{len(report.abusive_node_ids)} abusive removed "
          f"({report.abusive_fraction:.1%}; paper: {reference.ABUSIVE_FRACTION:.1%}) "
          f"from {len(report.abusive_ips)} IPs")
    print()
    print(format_table(
        "Table 3 — DEVp2p services",
        ["service", "count", "share"],
        service_table(db),
    ))
    print(side_by_side(
        dict((s, share) for s, _, share in service_table(db)).get("eth", 0.0),
        reference.TABLE3_SERVICES["eth"][1],
        "eth share of DEVp2p",
    ))
    print()
    mainnet = db.mainnet_nodes()
    print(format_table(
        "Table 4 — Mainnet clients",
        ["client", "count", "share"],
        client_share_table(mainnet),
    ))
    print()
    print(format_table(
        "Table 5 — top Geth versions",
        ["version", "channel", "count", "share"],
        version_table(mainnet, "geth", top=8),
    ))
    print(side_by_side(stable_fraction(mainnet, "geth"),
                       reference.GETH_STABLE_FRACTION, "Geth stable fraction"))
    print(side_by_side(stable_fraction(mainnet, "parity"),
                       reference.PARITY_STABLE_FRACTION, "Parity stable fraction"))
    print()
    stats = network_stats(db)
    print(f"Figure 9 — {stats.distinct_network_ids} network ids, "
          f"{stats.distinct_genesis_hashes} genesis hashes, "
          f"{stats.single_peer_networks} single-peer networks, "
          f"{stats.fake_mainnet_peers} fake-Mainnet-genesis peers")
    print(side_by_side(stats.mainnet_share, 0.55, "Mainnet share of eth STATUS nodes"))
    print(side_by_side(useless_fraction(db), reference.USELESS_PEER_FRACTION,
                       "useless-peer fraction (§6.1)"))


if __name__ == "__main__":
    main()
