"""Attacker node models living inside the simulated world.

"Eclipsing Ethereum Peers with False Friends" (Henningsen et al., see
PAPERS.md) showed the discovery stack this repo reimplements is
vulnerable to coordinated table poisoning.  This module puts those
attackers *inside* the simnet so the crawler, its breakers, and its
retry machinery face a hostile population on the same deterministic
world clock as everything else:

* **Sybil swarm** — ``sybil_count`` attacker identities minted from a
  single /24 (``SUBNET``) in one AS, all always-online,
  always-reachable, masquerading as synced Mainnet Geth
  nodes that accept every connection (so a victim keeps them on its
  StaticNodes schedule and re-dials them forever);
* **node-ID grinding** — a quota of Sybil IDs is ground (drawn until
  their keccak lands at a chosen Geth log-distance from the victim's ID
  hash, reusing :func:`~repro.discovery.distance.geth_log_distance`) so
  the swarm concentrates in the victim's near k-buckets, where random
  IDs essentially never fall;
* **false-friend NEIGHBORS** — an attacker answers FIND_NODE with
  confederates only, XOR-sorted toward the target so the answer looks
  protocol-correct while steering every lookup branch that touches an
  attacker back into the swarm;
* **FINDNODE amplification** — each poisoned answer is padded with
  *phantoms*: node IDs that exist nowhere in the world, whose addresses
  sit in the attacker subnet.  Dialing a phantom is 15 s of dead air
  (the world's unknown-ID timeout), so one cheap UDP answer amplifies
  into minutes of wasted TCP dial budget on the victim.

Everything is driven by one seeded ``random.Random``; launching the same
campaign against the same world twice produces byte-identical runs.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.crypto.keccak import keccak256
from repro.discovery.distance import geth_log_distance
from repro.simnet.geo import Location
from repro.simnet.node import NodeAddress, SimNode
from repro.simnet.population import NodeSpec
from repro.simnet.world import SimWorld


#: the /24 the swarm (and its phantoms) is minted from
SUBNET = "66.66.66.0/24"
#: the AS the swarm claims (simnet.geo view)
ASN = "AS-eclipse"
#: victim buckets targeted by ID grinding (Geth log distances; a
#: random ID lands at distance d with P = 2^(d-257), so bucket 248 is
#: a 1-in-512 draw — the swarm over-represents the victim's near
#: buckets ~4x against the 2^(d-257) natural density)
GRIND_BUCKETS = (248, 249, 250, 251, 252)
GRIND_PER_BUCKET = 2
#: draw cap for the grinder (the quota needs ~2k draws)
GRIND_ATTEMPT_LIMIT = 50_000
#: phantoms mixed into each poisoned NEIGHBORS answer
PHANTOMS_PER_ANSWER = 8
#: fraction of honest neighbour tables seeded with attackers at launch
INFILTRATE_FRACTION = 0.25
INFILTRATE_PER_TABLE = 3
#: the swarm never churns; keep it alive past any measurement window
DEPARTURE_DAY = 10_000.0
CLIENT_STRING = "Geth/v1.8.7-stable-0cd5e0db/linux-amd64/go1.10"


@dataclass
class AdversaryConfig:
    """One eclipse/Sybil campaign's knobs."""

    #: Sybil identities registered as live world nodes
    sybil_count: int = 48
    #: phantom identity pool backing the amplification padding
    phantom_pool: int = 192
    #: campaign RNG seed (independent of the world seed)
    seed: int = 666


class _Phantom:
    """A minted address with no node behind it — dials are dead air."""

    __slots__ = ("spec", "address")

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.address = NodeAddress(spec.node_id, spec.ip, spec.udp_port, spec.tcp_port)


class AttackerNode(SimNode):
    """A Sybil: an ordinary-looking node whose NEIGHBORS answers lie."""

    __slots__ = ("campaign",)

    def __init__(
        self,
        spec: NodeSpec,
        builder,
        rng: random.Random,
        campaign: "AdversaryCampaign",
    ) -> None:
        super().__init__(spec, builder, rng)
        self.campaign = campaign
        # accept every dial: the victim keeps the Sybil on its StaticNodes
        # schedule and burns a re-dial on it every cycle
        self.occupancy = 0.0
        self.status_reliability = 1.0

    def find_node(self, target_hash: bytes, count: int = 16) -> List:
        # a false friend: FIND_NODE is answered with confederates only
        return self.campaign.poisoned_answer(target_hash, count)


class AdversaryCampaign:
    """Mints the swarm, injects it into a world, and scores the result."""

    def __init__(self, config: Optional[AdversaryConfig] = None) -> None:
        self.config = config or AdversaryConfig()
        self._rng = random.Random(self.config.seed)
        self.attackers: List[AttackerNode] = []
        self.phantoms: List[_Phantom] = []
        self.attacker_ids: Set[bytes] = set()
        self.phantom_ids: Set[bytes] = set()
        #: ground IDs by the victim bucket they landed in
        self.ground_ids: Dict[int, List[bytes]] = {}
        self.victim_node_id: Optional[bytes] = None
        self.answers_served = 0
        self.infiltrated_tables = 0
        self._phantom_cursor = 0
        self._launched = False

    # -- minting ------------------------------------------------------------

    def _subnet_ips(self) -> List[str]:
        network = ipaddress.ip_network(SUBNET)
        return [str(host) for host in network.hosts()]

    def _grind(self, victim_hash: bytes) -> List[bytes]:
        """Draw node IDs until the per-bucket quotas are filled."""
        wanted = {bucket: GRIND_PER_BUCKET for bucket in GRIND_BUCKETS}
        remaining = sum(wanted.values())
        ground: List[bytes] = []
        for _ in range(GRIND_ATTEMPT_LIMIT):
            if remaining == 0:
                break
            candidate = self._rng.randbytes(64)
            bucket = geth_log_distance(victim_hash, keccak256(candidate))
            if wanted.get(bucket, 0) > 0:
                wanted[bucket] -= 1
                remaining -= 1
                ground.append(candidate)
                self.ground_ids.setdefault(bucket, []).append(candidate)
        return ground

    def _attacker_spec(self, node_id: bytes, ip: str, world: SimWorld) -> NodeSpec:
        return NodeSpec(
            node_id=node_id,
            location=Location(
                country="XX", region="eu-west", asn=ASN, is_cloud=True, ip=ip
            ),
            tcp_port=30303,
            udp_port=30303,
            service="eth",
            capabilities=[("eth", 62), ("eth", 63)],
            client_family="geth",
            client_string=CLIENT_STRING,
            version_behaviour=None,
            peer_limit=10_000,
            metric="geth",
            network_name="mainnet",
            network_id=1,
            genesis_hash=world.mainnet.genesis_hash,
            supports_dao=True,
            reachable=True,
            arrival_day=0.0,
            departure_day=DEPARTURE_DAY,
            uptime_fraction=1.0,
        )

    # -- launch -------------------------------------------------------------

    def launch(self, world: SimWorld, victim_node_id: bytes) -> None:
        """Inject the swarm into ``world``, aimed at ``victim_node_id``.

        Must run after the world is built and before the victim crawler
        starts (mirroring an attacker who is in place when the victim
        boots — the table-flush window of Marcus et al.).
        """
        if self._launched:
            raise RuntimeError("campaign already launched")
        self._launched = True
        self.victim_node_id = victim_node_id
        victim_hash = keccak256(victim_node_id)
        ips = self._subnet_ips()
        config = self.config

        node_ids = self._grind(victim_hash)
        while len(node_ids) < config.sybil_count:
            node_ids.append(self._rng.randbytes(64))
        node_ids = node_ids[: config.sybil_count]

        for index, node_id in enumerate(node_ids):
            spec = self._attacker_spec(node_id, ips[index % len(ips)], world)
            attacker = AttackerNode(spec, world.builder, self._rng, self)
            self.attackers.append(attacker)
            self.attacker_ids.add(node_id)
            world.nodes[node_id] = attacker

        for index in range(config.phantom_pool):
            node_id = self._rng.randbytes(64)
            spec = self._attacker_spec(
                node_id, ips[(config.sybil_count + index) % len(ips)], world
            )
            self.phantoms.append(_Phantom(spec))
            self.phantom_ids.add(node_id)

        self._infiltrate(world)

    def _infiltrate(self, world: SimWorld) -> None:
        """Seed attackers into a slice of honest neighbour tables.

        From there the world's own neighbour-refresh churn keeps folding
        the swarm into the discovery fabric, the same way a real attacker
        rides organic NEIGHBORS gossip.
        """
        honest = [
            node
            for node in world.nodes.values()
            if node.spec.node_id not in self.attacker_ids and node.neighbors
        ]
        if not honest or not self.attackers:
            return
        count = int(len(honest) * INFILTRATE_FRACTION)
        per_table = min(INFILTRATE_PER_TABLE, len(self.attackers))
        for node in self._rng.sample(honest, min(count, len(honest))):
            node.neighbors.extend(self._rng.sample(self.attackers, per_table))
            self.infiltrated_tables += 1

    # -- the false-friend answer --------------------------------------------

    def poisoned_answer(self, target_hash: bytes, count: int) -> List:
        """Confederates XOR-sorted toward the target, padded with phantoms.

        The sort makes the answer look protocol-correct (closest first);
        the padding is the amplification — every phantom the victim dials
        is 15 s of dead air charged to the attacker's /24.
        """
        self.answers_served += 1
        target_int = int.from_bytes(target_hash, "big")
        confederates = sorted(
            self.attackers, key=lambda node: node.id_hash_int ^ target_int
        )
        phantom_slots = min(PHANTOMS_PER_ANSWER, count)
        answer: List = confederates[: max(0, count - phantom_slots)]
        if self.phantoms:
            for _ in range(min(phantom_slots, count - len(answer))):
                answer.append(
                    self.phantoms[self._phantom_cursor % len(self.phantoms)]
                )
                self._phantom_cursor += 1
        return answer[:count]

    # -- scoring ------------------------------------------------------------

    def is_attacker(self, node_id: bytes) -> bool:
        return node_id in self.attacker_ids or node_id in self.phantom_ids

    def table_share(self, table) -> float:
        """Attacker fraction of a routing table's live entries."""
        entries = list(table)
        if not entries:
            return 0.0
        hostile = sum(1 for node in entries if self.is_attacker(node.node_id))
        return hostile / len(entries)

    def observed_share(self, node_ids) -> float:
        """Attacker fraction of an arbitrary observed-node-ID collection."""
        ids = list(node_ids)
        if not ids:
            return 0.0
        return sum(1 for node_id in ids if self.is_attacker(node_id)) / len(ids)
