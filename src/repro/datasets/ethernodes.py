"""A simulated ethernodes.org, the paper's external-validation source (§5.3).

Ethernodes runs one or a few crawler nodes accepting incoming connections
and crawling outward.  Its published "Mainnet nodes" page lists every node
seen *claiming network ID 1* within 24 hours — including nodes whose
genesis hash is not Mainnet's — which is why the paper found only 4,717 of
its 20,437 listed nodes actually operating the Mainnet blockchain.

Coverage characteristics modelled from §5.3:

* misses many unreachable nodes NodeFinder catches (fewer vantage points,
  lower incoming-connection capture);
* lists some nodes NodeFinder misses — light clients (LES/PIP) that
  NodeFinder cannot handshake with, and flaky ancient Parity v1.0.0 nodes;
* reports each node's claimed network id and genesis hash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.genesis import MAINNET_GENESIS_HASH
from repro.simnet.world import SimWorld


@dataclass
class EthernodesSnapshot:
    """One 24h scrape of the simulated Ethernodes Mainnet page."""

    listed: dict = field(default_factory=dict)  # node_id -> (network_id, genesis)

    @property
    def listed_count(self) -> int:
        return len(self.listed)

    def verified_mainnet_ids(self) -> set:
        """Nodes on the page whose *reported genesis* is Mainnet's (§5.3)."""
        return {
            node_id
            for node_id, (network_id, genesis) in self.listed.items()
            if genesis == MAINNET_GENESIS_HASH
        }


# calibrated to Table 2: EN∩NFR / NFR ≈ 0.44, EN∩NFU / NFU ≈ 0.11
REACHABLE_CAPTURE = 0.44
UNREACHABLE_CAPTURE = 0.11
LIGHT_CLIENT_CAPTURE = 0.8


class EthernodesCrawler:
    """The independent comparator crawler."""

    def __init__(self, world: SimWorld, seed: int = 99) -> None:
        self.world = world
        self.rng = random.Random(seed)

    def snapshot(self, start_day: float, end_day: float) -> EthernodesSnapshot:
        """Scrape the Mainnet page for nodes seen in [start_day, end_day)."""
        snapshot = EthernodesSnapshot()
        for node in self.world.nodes.values():
            spec = node.spec
            if spec.runs_nodefinder:
                continue
            if not self._was_active(spec, start_day, end_day):
                continue
            # the page lists network-ID-1 claimants: eth Mainnet, Classic,
            # plus light clients it crawled (reported with Mainnet genesis)
            if spec.service == "eth":
                if spec.network_id != 1:
                    # the Mainnet page only carries network-id-1 claimants
                    continue
                if spec.genesis_hash == MAINNET_GENESIS_HASH:
                    capture = (
                        REACHABLE_CAPTURE if spec.reachable else UNREACHABLE_CAPTURE
                    )
                else:
                    # default-network-id private chains flood the page: they
                    # actively announce and Ethernodes lists every claimant —
                    # why only 4,717 of its 20,437 rows verified (§5.3)
                    capture = 0.85
                if self.rng.random() < capture:
                    snapshot.listed[spec.node_id] = (
                        spec.network_id,
                        spec.genesis_hash,
                    )
            elif spec.service in ("les", "pip"):
                # light clients NodeFinder cannot speak to (§5.3: 61 nodes)
                if self.rng.random() < LIGHT_CLIENT_CAPTURE:
                    snapshot.listed[spec.node_id] = (1, MAINNET_GENESIS_HASH)
        # a sliver of abusive factory identities also reach the page
        for factory in self.world.factories:
            for node_id in factory.spawned:
                if self.rng.random() < 0.03:
                    snapshot.listed[node_id] = (1, MAINNET_GENESIS_HASH)
        return snapshot

    @staticmethod
    def _was_active(spec, start_day: float, end_day: float) -> bool:
        return spec.arrival_day < end_day and spec.departure_day > start_day
