"""External comparisons: Table 2 (vs Ethernodes) and Table 6 (network sizes)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.ethernodes import EthernodesSnapshot
from repro.datasets.p2p_history import NETWORK_SIZES
from repro.nodefinder.database import NodeDB
from repro.units import SECONDS_PER_DAY


@dataclass
class Table2:
    """The NodeFinder/Ethernodes set comparison (§5.3)."""

    ethernodes_listed: int
    ethernodes_verified: int
    nodefinder_total: int
    nodefinder_reachable: int
    nodefinder_unreachable: int
    overlap: int
    overlap_reachable: int
    overlap_unreachable: int
    ethernodes_only: int

    @property
    def coverage_of_ethernodes(self) -> float:
        """Share of Ethernodes' verified nodes that NodeFinder also saw."""
        return self.overlap / max(self.ethernodes_verified, 1)

    @property
    def advantage_factor(self) -> float:
        """How many times more Mainnet nodes NodeFinder found (2.3x+ in §7.1)."""
        return self.nodefinder_total / max(self.ethernodes_verified, 1)

    def rows(self) -> list[tuple[str, int]]:
        return [
            ("EN listed (Mainnet page)", self.ethernodes_listed),
            ("EN verified Mainnet genesis", self.ethernodes_verified),
            ("NF Mainnet nodes", self.nodefinder_total),
            ("NF reachable (NFR)", self.nodefinder_reachable),
            ("NF unreachable (NFU)", self.nodefinder_unreachable),
            ("EN ∩ NF", self.overlap),
            ("EN ∩ NFR", self.overlap_reachable),
            ("EN ∩ NFU", self.overlap_unreachable),
            ("EN only", self.ethernodes_only),
        ]


def mainnet_snapshot_ids(
    db: NodeDB, start_day: float, end_day: float
) -> tuple[set, set]:
    """(reachable ids, unreachable ids) of verified Mainnet nodes NodeFinder
    saw within the window.

    Reachability is judged the way the paper could: a node we ever reached
    via our own outbound dial is reachable; one seen only through incoming
    connections is not.
    """
    start, end = start_day * SECONDS_PER_DAY, end_day * SECONDS_PER_DAY
    reachable: set = set()
    unreachable: set = set()
    for entry in db.mainnet_nodes():
        if entry.last_seen < start or entry.first_seen >= end:
            continue
        if entry.outbound_success:
            reachable.add(entry.node_id)
        else:
            unreachable.add(entry.node_id)
    return reachable, unreachable


def build_table2(
    db: NodeDB,
    ethernodes: EthernodesSnapshot,
    start_day: float,
    end_day: float,
) -> Table2:
    reachable, unreachable = mainnet_snapshot_ids(db, start_day, end_day)
    nodefinder_all = reachable | unreachable
    verified = ethernodes.verified_mainnet_ids()
    overlap = verified & nodefinder_all
    return Table2(
        ethernodes_listed=ethernodes.listed_count,
        ethernodes_verified=len(verified),
        nodefinder_total=len(nodefinder_all),
        nodefinder_reachable=len(reachable),
        nodefinder_unreachable=len(unreachable),
        overlap=len(overlap),
        overlap_reachable=len(verified & reachable),
        overlap_unreachable=len(verified & unreachable),
        ethernodes_only=len(verified - nodefinder_all),
    )


def build_table6(
    nodefinder_count: int, ethernodes_count: int, scale_factor: float = 1.0
) -> list[tuple[str, str, int]]:
    """Table 6 with our measured Ethereum rows swapped in.

    ``scale_factor`` maps simulated counts back to paper scale for the
    side-by-side (the ratio NodeFinder/Ethernodes is the scale-free part).
    """
    rows = []
    for name, date, size in NETWORK_SIZES:
        if name.startswith("Ethereum (NodeFinder)"):
            rows.append((name + " [measured]", date, int(nodefinder_count * scale_factor)))
        elif name.startswith("Ethereum (Ethernodes)"):
            rows.append((name + " [measured]", date, int(ethernodes_count * scale_factor)))
        else:
            rows.append((name, date, size))
    return rows
