"""The node-mix generator: who is on the DEVp2p network.

Builds the static specification of every simulated node from the marginal
distributions the paper reports, so that crawling the simulated world
reproduces the *shape* of Tables 3-5 and Figures 9-14:

* DEVp2p service mix — Table 3 (eth 93.98%, bzz, les, exp, istanbul, ...);
* Ethereum network / genesis-hash mix — Figure 9 (Mainnet majority,
  Classic, Musicoin/Pirl/Ubiq, testnets, a long tail of custom networks,
  single-peer networks, and fake-Mainnet-genesis advertisers);
* client and version mix — Tables 4-5 (Geth 76.6%, Parity 17.0%,
  ethereumjs 5.2%, 30 others) with release-driven version churn;
* freshness — Figure 14 (≈32.7% stale, a cluster stuck at Byzantium+1);
* reachability (≈35% of Mainnet nodes accept inbound TCP) and churn;
* the abusive node-ID factories of §5.4.

All counts scale with ``PopulationConfig.total_nodes`` (the paper saw
356,492 HELLO-able nodes over 82 days; defaults here are ~1/60 scale).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.chain.genesis import MAINNET_GENESIS_HASH, custom_genesis_hashes
from repro.simnet.geo import GeoModel, Location
from repro.simnet.releases import (
    MEASUREMENT_DAYS,
    default_geth_model,
    default_parity_model,
    geth_client_string,
    parity_client_string,
)

#: Table 3 — DEVp2p service shares.
SERVICE_MIX: list[tuple[str, float]] = [
    ("eth", 0.9398),
    ("bzz", 0.0185),
    ("les", 0.0124),
    ("exp", 0.0050),
    ("istanbul", 0.0046),
    ("shh", 0.0045),
    ("dbix", 0.0028),
    ("pip", 0.0027),
    ("mc", 0.0016),
    ("ele", 0.0008),
    ("unknown", 0.0001),
    ("other", 0.0072),
]

#: Figure 9 — network mix among eth-STATUS nodes (name, share, network id).
NETWORK_MIX: list[tuple[str, float, int]] = [
    ("mainnet", 0.550, 1),
    ("classic", 0.050, 1),           # same network id AND genesis as Mainnet
    ("ropsten", 0.080, 3),
    ("rinkeby", 0.040, 4),
    ("kovan", 0.030, 42),
    ("musicoin", 0.015, 7762959),
    ("pirl", 0.015, 3125659152),
    ("ubiq", 0.011, 8),
    ("ellaism", 0.006, 64),
    ("fake-mainnet", 0.032, -1),     # random network id, Mainnet genesis (§6.1)
    ("single-peer", 0.045, -2),      # unique one-node networks (1,402 in paper)
    ("custom", 0.126, -3),           # long tail of shared custom networks
]

#: Table 4 — Mainnet client families.
CLIENT_MIX: list[tuple[str, float]] = [
    ("geth", 0.766),
    ("parity", 0.170),
    ("ethereumjs", 0.052),
    ("other", 0.012),
]

#: The "30 others" — plausible 2018 minor clients.
OTHER_CLIENT_NAMES = [
    "cpp-ethereum/v1.3.0", "Aleth/v1.0.0", "EthereumJ/v1.8.2", "Harmony/v2.1",
    "Mantis/v1.0", "exp/v1.6.5", "Gubiq/v1.7.3", "pirl/v1.8.8", "Gmc/v0.8.3",
    "Gdbix/v1.5.9", "Gele/v1.6.2", "ewasm/v0.1", "teth/v0.1", "ghost/v1.0",
    "WaltonChain/v1.0", "gcm/v1.1", "go-egem/v1.0", "Gcp/v1.5", "ella/v1.0",
    "smilo/v0.9", "aqua/v0.7", "Gather/v1.0", "reth/v0.0.1", "Gexp/v1.7.2",
    "Nifty/v0.9", "trust-geth/v1.8", "akroma/v0.2", "ubq-node/v1.2",
    "musicoin-go/v1.7", "pantheon/v0.8",
]

#: eth/62-63 capability pairs by service.
SERVICE_CAPABILITIES: dict[str, list[tuple[str, int]]] = {
    "eth": [("eth", 62), ("eth", 63)],
    "les": [("les", 1), ("les", 2)],
    "pip": [("pip", 1)],
    "bzz": [("bzz", 0)],
    "shh": [("shh", 6)],
    "istanbul": [("istanbul", 64)],
    "exp": [("exp", 62), ("exp", 63)],
    "dbix": [("dbix", 62)],
    "mc": [("mc", 62)],
    "ele": [("ele", 62), ("ele", 63)],
    "unknown": [("zzz", 1)],
}


@dataclass(slots=True)
class NodeSpec:
    """Everything static about one simulated node."""

    node_id: bytes
    location: Location
    tcp_port: int
    udp_port: int
    service: str
    capabilities: list[tuple[str, int]]
    client_family: str
    client_string: str  # fixed clients; geth/parity use version_behaviour
    version_behaviour: Optional[dict]
    peer_limit: int
    metric: str  # 'geth' or 'parity' bucket metric
    # eth-specific
    network_name: Optional[str] = None
    network_id: Optional[int] = None
    genesis_hash: Optional[bytes] = None
    supports_dao: bool = True
    freshness: str = "synced"  # synced | stale | stuck-byzantium
    lag_blocks: int = 0
    # connectivity & lifecycle
    reachable: bool = True
    arrival_day: float = 0.0
    departure_day: float = MEASUREMENT_DAYS
    uptime_fraction: float = 1.0
    session_period_hours: float = 24.0
    phase: float = 0.0
    runs_nodefinder: bool = False

    @property
    def ip(self) -> str:
        return self.location.ip

    def is_online(self, day: float) -> bool:
        """Deterministic churn: alive within [arrival, departure], cycling
        on/off with the node's period and uptime fraction."""
        if not self.arrival_day <= day < self.departure_day:
            return False
        if self.uptime_fraction >= 0.999:
            return True
        period = self.session_period_hours / 24.0
        position = ((day + self.phase) % period) / period
        return position < self.uptime_fraction

    @property
    def is_mainnet(self) -> bool:
        """Operates the mainstream (non-Classic) Mainnet blockchain."""
        return (
            self.service == "eth"
            and self.network_id == 1
            and self.genesis_hash == MAINNET_GENESIS_HASH
            and self.supports_dao
        )

    @property
    def claims_mainnet_genesis(self) -> bool:
        return self.genesis_hash == MAINNET_GENESIS_HASH


@dataclass(slots=True)
class AbusiveIPSpec:
    """An IP that churns out fresh node IDs (§5.4).

    The flagship instance: 42,237 `ethereumjs-devp2p/v1.0.0` nodes on one
    IP, best hash pinned to the genesis hash, 80% seen once, none living
    past 30 minutes.
    """

    ip: str
    location: Location
    client_string: str
    spawn_interval_minutes: float
    node_lifetime_minutes: float
    arrival_day: float = 0.0
    departure_day: float = MEASUREMENT_DAYS


@dataclass
class PopulationConfig:
    """Knobs for the generator; defaults are ~1/60 of the paper's scale."""

    total_nodes: int = 6000
    seed: int = 2018
    measurement_days: float = MEASUREMENT_DAYS
    #: share of Mainnet nodes accepting inbound TCP (Table 2: 5,951/16,831)
    reachable_fraction: float = 0.35
    #: share of Mainnet snapshot nodes that are stale (Figure 14)
    stale_fraction: float = 0.327
    #: share stuck exactly at the first post-Byzantium block (141/15,454)
    stuck_byzantium_fraction: float = 0.009
    #: long-lived "core" nodes present the whole window
    core_fraction: float = 0.45
    #: abusive factories (paper: 1,256 IPs; flagship at 149.129.129.190)
    abusive_ip_count: int = 8
    abusive_spawn_interval_minutes: float = 25.0
    #: nodes running NodeFinder-like scanners to exclude (242 in paper)
    foreign_scanner_count: int = 4


def _total_weight(table: list[tuple]) -> float:
    return sum(row[1] for row in table)


#: each mix table's total weight, summed once rather than on every pick
_SERVICE_TOTAL = _total_weight(SERVICE_MIX)
_NETWORK_TOTAL = _total_weight(NETWORK_MIX)
_CLIENT_TOTAL = _total_weight(CLIENT_MIX)


def _pick_weighted(rng: random.Random, table: list[tuple], total: float) -> tuple:
    roll = rng.random() * total
    cumulative = 0.0
    for row in table:
        cumulative += row[1]
        if roll <= cumulative:
            return row
    return table[-1]


class PopulationBuilder:
    """Generates NodeSpecs; one instance per world build."""

    def __init__(self, config: PopulationConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.geo = GeoModel(random.Random(config.seed + 1))
        self.geth_versions = default_geth_model()
        self.parity_versions = default_parity_model()
        self._custom_network_pool: list[tuple[int, str]] = []
        self._single_peer_counter = 0
        self._client_string_cache: dict[tuple, str] = {}

    # -- field generators --------------------------------------------------

    def _node_id(self) -> bytes:
        return self.rng.randbytes(64)

    def _ports(self) -> tuple[int, int]:
        if self.rng.random() < 0.85:
            return 30303, 30303
        port = self.rng.choice([30301, 30304, 30305, 31303, 40404, 8545 + 21758])
        return port, port

    def _lifecycle(self) -> dict:
        """Arrival/departure/uptime for one node."""
        config, rng = self.config, self.rng
        days = config.measurement_days
        if rng.random() < config.core_fraction:
            arrival, departure = 0.0, days
        else:
            arrival = rng.uniform(0, days * 0.95)
            duration = min(rng.expovariate(1 / 6.0) + 0.02, days - arrival)
            departure = arrival + duration
        roll = rng.random()
        if roll < 0.5:
            uptime, period = 1.0, 24.0
        elif roll < 0.8:
            uptime, period = rng.uniform(0.5, 0.95), rng.choice([6.0, 12.0, 24.0])
        else:
            uptime, period = rng.uniform(0.1, 0.5), rng.choice([2.0, 4.0, 8.0])
        return {
            "arrival_day": arrival,
            "departure_day": departure,
            "uptime_fraction": uptime,
            "session_period_hours": period,
            "phase": rng.random(),
        }

    def _custom_network(self) -> tuple[int, str]:
        """A network from the shared custom-chain pool (Zipf-ish reuse).

        Multiple genesis names per network id reproduce the paper's
        18,829 hashes over 4,076 ids.
        """
        rng = self.rng
        if self._custom_network_pool and rng.random() < 0.75:
            network_id, genesis = rng.choice(self._custom_network_pool)
            if rng.random() < 0.25:  # same id, different genesis
                genesis = f"custom-{network_id}-{rng.randrange(1 << 20)}"
                self._custom_network_pool.append((network_id, genesis))
            return network_id, genesis
        network_id = rng.randrange(100, 1 << 28)
        genesis = f"custom-{network_id}"
        self._custom_network_pool.append((network_id, genesis))
        return network_id, genesis

    def _network_fields(self) -> dict:
        """network/genesis/DAO/freshness for an eth node.

        A non-Mainnet ``genesis_hash`` comes back as the genesis *name*
        (a ``str``): no hash feeds an RNG draw, so hashing is deferred to
        the end of :func:`generate_population`, once per distinct name.
        """
        rng = self.rng
        name, _, network_id = _pick_weighted(rng, NETWORK_MIX, _NETWORK_TOTAL)
        fields: dict = {"network_name": name, "supports_dao": True}
        if name == "mainnet":
            fields.update(network_id=1, genesis_hash=MAINNET_GENESIS_HASH)
        elif name == "classic":
            fields.update(
                network_id=1, genesis_hash=MAINNET_GENESIS_HASH, supports_dao=False
            )
        elif name == "fake-mainnet":
            fields.update(
                network_id=rng.randrange(2, 1 << 24),
                genesis_hash=MAINNET_GENESIS_HASH,
                supports_dao=False,
            )
        elif name == "single-peer":
            self._single_peer_counter += 1
            unique = f"single-{self._single_peer_counter}"
            fields.update(
                # many private chains keep the default network id of 1,
                # which is what pollutes Ethernodes' Mainnet page (§5.3)
                network_id=1 if rng.random() < 0.55
                else rng.randrange(1 << 16, 1 << 30),
                genesis_hash=unique,
                supports_dao=False,
            )
        elif name == "custom":
            network_id, genesis = self._custom_network()
            if rng.random() < 0.55:
                network_id = 1  # default-network-id private chain
            fields.update(
                network_id=network_id, genesis_hash=genesis, supports_dao=False
            )
        else:  # named altcoins / testnets
            fields.update(
                network_id=network_id,
                genesis_hash=name,
                supports_dao=False,
            )
        # freshness applies to the node's own chain view
        roll = rng.random()
        config = self.config
        if name == "mainnet" and roll < config.stuck_byzantium_fraction:
            fields.update(freshness="stuck-byzantium", lag_blocks=0)
        elif roll < config.stuck_byzantium_fraction + config.stale_fraction:
            # log-uniform lag from ~30 blocks to ~3M blocks behind
            lag = int(10 ** rng.uniform(1.5, 6.5))
            fields.update(freshness="stale", lag_blocks=lag)
        else:
            fields.update(freshness="synced", lag_blocks=rng.randrange(0, 6))
        return fields

    def _client_fields(self, service: str) -> dict:
        """client family/string, peer limit, bucket metric."""
        rng = self.rng
        if service == "eth":
            family = _pick_weighted(rng, CLIENT_MIX, _CLIENT_TOTAL)[0]
        elif service in ("pip",):
            family = "parity"
        elif service in ("les", "bzz", "shh"):
            family = "geth"
        else:
            family = "other"
        if family == "geth":
            behaviour = self.geth_versions.draw_behaviour(rng)
            # §6.2 / Table 5: 18.1% of Geth nodes run unstable master builds
            behaviour["unstable_build"] = rng.random() < 0.181
            return {
                "client_family": "geth",
                "client_string": "",
                "version_behaviour": behaviour,
                "peer_limit": 25,
                "metric": "geth",
            }
        if family == "parity":
            behaviour = self.parity_versions.draw_behaviour(rng)
            return {
                "client_family": "parity",
                "client_string": "",
                "version_behaviour": behaviour,
                "peer_limit": 50,
                "metric": "parity",
            }
        if family == "ethereumjs":
            version = rng.choice(["v2.1.3", "v2.1.2", "v2.0.0", "v1.0.0"])
            return {
                "client_family": "ethereumjs",
                "client_string": f"ethereumjs-devp2p/{version}/linux-x64/nodejs",
                "version_behaviour": None,
                "peer_limit": 25,
                "metric": "geth",
            }
        name = rng.choice(OTHER_CLIENT_NAMES)
        return {
            "client_family": "other",
            "client_string": f"{name}/linux-amd64",
            "version_behaviour": None,
            "peer_limit": rng.choice([25, 50, 100]),
            "metric": "geth",
        }

    def client_string_at(self, spec: NodeSpec, day: float) -> str:
        """The HELLO client id the node reports on ``day``.

        The string depends only on the node's id prefix, the version live
        on ``day``, and the unstable flag (the decorating RNG is freshly
        seeded from the id prefix each time), so results are memoised on
        that key — a crawl asks for the same node's string thousands of
        times between releases.
        """
        if spec.version_behaviour is None:
            return spec.client_string
        prefix = spec.node_id[:8]  # stable per-node decoration seed
        if spec.client_family == "geth":
            version = self.geth_versions.version_at(spec.version_behaviour, day)
            unstable = spec.version_behaviour.get("unstable_build", False)
            key = (prefix, version, unstable)
            cached = self._client_string_cache.get(key)
            if cached is None:
                cached = geth_client_string(
                    version, random.Random(prefix), unstable=unstable
                )
                self._client_string_cache[key] = cached
            return cached
        version = self.parity_versions.version_at(spec.version_behaviour, day)
        key = (prefix, version)
        cached = self._client_string_cache.get(key)
        if cached is None:
            cached = parity_client_string(version, random.Random(prefix))
            self._client_string_cache[key] = cached
        return cached

    # -- assembly ------------------------------------------------------------

    def build_node(self) -> NodeSpec:
        rng = self.rng
        service = _pick_weighted(rng, SERVICE_MIX, _SERVICE_TOTAL)[0]
        capabilities = list(
            SERVICE_CAPABILITIES.get(service, SERVICE_CAPABILITIES["unknown"])
        )
        if service == "eth" and rng.random() < 0.05:
            capabilities += [("shh", 6)]  # geth --shh sidecar
        client = self._client_fields(service)
        tcp_port, udp_port = self._ports()
        spec = NodeSpec(
            node_id=self._node_id(),
            location=self.geo.assign(),
            tcp_port=tcp_port,
            udp_port=udp_port,
            service=service,
            capabilities=capabilities,
            reachable=rng.random() < self.config.reachable_fraction,
            **client,
            **self._lifecycle(),
        )
        if service == "eth":
            for key, value in self._network_fields().items():
                setattr(spec, key, value)
        return spec

    def build_abusive_ips(self) -> list[AbusiveIPSpec]:
        """The §5.4 node-ID factories; the first mimics 149.129.129.190.

        The flagship churns IDs for the whole window (paper: 42,237 node IDs
        from one IP, ≈515/day); the rest are bursty — active for a fraction
        of a day to a couple of days at a time, which is what makes the
        ≤30-minutes-per-new-node criterion bite.
        """
        factories = []
        days = self.config.measurement_days
        for index in range(self.config.abusive_ip_count):
            location = self.geo.assign()
            if index == 0:
                client = "ethereumjs-devp2p/v1.0.0/linux-x64/nodejs"
                interval = self.config.abusive_spawn_interval_minutes
                arrival, departure = 0.0, days
            else:
                client = self.rng.choice(
                    [
                        "ethereumjs-devp2p/v1.0.0/linux-x64/nodejs",
                        "ethereumjs-devp2p/v2.0.0/linux-x64/nodejs",
                        "Geth/v1.8.2-stable/linux-amd64/go1.10",
                    ]
                )
                interval = self.rng.uniform(4.0, 10.0)
                arrival = self.rng.uniform(0, days * 0.9)
                departure = arrival + self.rng.uniform(0.1, 0.5)
            factories.append(
                AbusiveIPSpec(
                    ip=location.ip,
                    location=location,
                    client_string=client,
                    spawn_interval_minutes=interval,
                    node_lifetime_minutes=self.rng.uniform(3, 25),
                    arrival_day=arrival,
                    departure_day=min(departure, days),
                )
            )
        return factories


def generate_population(
    config: PopulationConfig,
) -> tuple[list[NodeSpec], list[AbusiveIPSpec], PopulationBuilder]:
    """Generate the full ecosystem; returns (nodes, abusive IPs, builder).

    The builder is returned because version strings are time-dependent —
    the world asks it for ``client_string_at(spec, day)``.
    """
    builder = PopulationBuilder(config)
    nodes = [builder.build_node() for _ in range(config.total_nodes)]
    for index in range(config.foreign_scanner_count):
        scanner = builder.build_node()
        scanner.service = "eth"
        scanner.runs_nodefinder = True
        scanner.client_string = "Geth/v1.7.3-stable-nodefinder/linux-amd64/go1.9.2"
        scanner.version_behaviour = None
        scanner.client_family = "geth"
        nodes.append(scanner)
    # build_node left every non-Mainnet genesis as its chain name: hash
    # all distinct names in two batched keccak passes
    named = [spec for spec in nodes if isinstance(spec.genesis_hash, str)]
    hashes = custom_genesis_hashes(spec.genesis_hash for spec in named)
    for spec in named:
        spec.genesis_hash = hashes[spec.genesis_hash]
    return nodes, builder.build_abusive_ips(), builder
