"""Population generator tests: marginals must match the paper's (§6-7)."""

import random
from collections import Counter

import pytest

from repro.chain.genesis import MAINNET_GENESIS_HASH
from repro.simnet.geo import GeoModel
from repro.simnet.population import (
    FOREIGN_SCANNER_COUNT,
    NodeSpec,
    PopulationConfig,
    generate_population,
)
from repro.simnet.releases import (
    default_geth_model,
    default_parity_model,
    geth_client_string,
    parity_client_string,
)


@pytest.fixture(scope="module")
def population():
    config = PopulationConfig(total_nodes=4000, seed=123)
    nodes, factories, builder = generate_population(config)
    return nodes, factories, builder


class TestServiceMix:
    def test_eth_dominates(self, population):
        nodes, _, _ = population
        eth_share = sum(1 for n in nodes if n.service == "eth") / len(nodes)
        assert 0.92 < eth_share < 0.96  # paper: 93.98%

    def test_minor_services_present(self, population):
        nodes, _, _ = population
        services = Counter(n.service for n in nodes)
        for service in ("bzz", "les"):
            assert services[service] > 0

    def test_capabilities_match_service(self, population):
        nodes, _, _ = population
        for node in nodes[:500]:
            if node.service == "eth":
                assert ("eth", 63) in node.capabilities
            elif node.service == "bzz":
                assert node.capabilities[0][0] == "bzz"


class TestNetworkMix:
    def test_mainnet_is_roughly_half_of_all(self, population):
        nodes, _, _ = population
        share = sum(1 for n in nodes if n.is_mainnet) / len(nodes)
        assert 0.45 < share < 0.58  # paper: 51.8% productive

    def test_classic_shares_mainnet_genesis(self, population):
        nodes, _, _ = population
        classic = [n for n in nodes if n.network_name == "classic"]
        assert classic
        for node in classic:
            assert node.genesis_hash == MAINNET_GENESIS_HASH
            assert node.network_id == 1
            assert not node.supports_dao
            assert not node.is_mainnet

    def test_fake_mainnet_advertisers(self, population):
        nodes, _, _ = population
        fakes = [n for n in nodes if n.network_name == "fake-mainnet"]
        assert fakes
        for node in fakes:
            assert node.genesis_hash == MAINNET_GENESIS_HASH
            assert node.network_id != 1
            assert not node.is_mainnet

    def test_single_peer_networks_unique_genesis(self, population):
        nodes, _, _ = population
        singles = [n for n in nodes if n.network_name == "single-peer"]
        hashes = [n.genesis_hash for n in singles]
        assert len(set(hashes)) == len(hashes)

    def test_many_distinct_networks_and_genesis_hashes(self, population):
        nodes, _, _ = population
        eth = [n for n in nodes if n.service == "eth"]
        network_ids = {n.network_id for n in eth}
        genesis_hashes = {n.genesis_hash for n in eth}
        assert len(network_ids) > 30
        assert len(genesis_hashes) > len(network_ids)  # paper: 18,829 > 4,076


class TestClientMix:
    def test_mainnet_client_shares(self, population):
        nodes, _, _ = population
        mainnet = [n for n in nodes if n.is_mainnet]
        shares = Counter(n.client_family for n in mainnet)
        total = len(mainnet)
        assert 0.70 < shares["geth"] / total < 0.83       # paper 76.6%
        assert 0.12 < shares["parity"] / total < 0.22     # paper 17.0%
        assert 0.02 < shares["ethereumjs"] / total < 0.09  # paper 5.2%

    def test_geth_peer_limit_25_parity_50(self, population):
        nodes, _, _ = population
        for node in nodes[:800]:
            if node.client_family == "geth":
                assert node.peer_limit == 25
            elif node.client_family == "parity":
                assert node.peer_limit == 50

    def test_parity_uses_buggy_metric(self, population):
        nodes, _, _ = population
        for node in nodes[:800]:
            if node.client_family == "parity":
                assert node.metric == "parity"
            elif node.client_family == "geth":
                assert node.metric == "geth"


class TestFreshnessAndReachability:
    def test_stale_fraction(self, population):
        nodes, _, _ = population
        mainnet = [n for n in nodes if n.is_mainnet]
        stale = sum(1 for n in mainnet if n.freshness in ("stale",))
        assert 0.25 < stale / len(mainnet) < 0.42  # paper: 32.7%

    def test_some_nodes_stuck_at_byzantium(self, population):
        nodes, _, _ = population
        stuck = [n for n in nodes if n.freshness == "stuck-byzantium"]
        assert stuck

    def test_reachable_fraction(self, population):
        nodes, _, _ = population
        share = sum(1 for n in nodes if n.reachable) / len(nodes)
        assert 0.30 < share < 0.42  # paper: ~35% of Mainnet reachable


class TestLifecycle:
    def test_is_online_respects_window(self):
        spec_kwargs = dict(
            node_id=b"\x01" * 64,
            location=GeoModel(random.Random(0)).assign(),
            tcp_port=30303,
            udp_port=30303,
            service="eth",
            capabilities=[("eth", 63)],
            client_family="geth",
            client_string="x",
            version_behaviour=None,
            peer_limit=25,
            metric="geth",
        )
        node = NodeSpec(arrival_day=2.0, departure_day=5.0, **spec_kwargs)
        assert not node.is_online(1.0)
        assert node.is_online(3.0)
        assert not node.is_online(5.5)

    def test_uptime_cycling(self):
        spec_kwargs = dict(
            node_id=b"\x02" * 64,
            location=GeoModel(random.Random(0)).assign(),
            tcp_port=30303,
            udp_port=30303,
            service="eth",
            capabilities=[("eth", 63)],
            client_family="geth",
            client_string="x",
            version_behaviour=None,
            peer_limit=25,
            metric="geth",
        )
        node = NodeSpec(
            arrival_day=0.0,
            departure_day=10.0,
            uptime_fraction=0.5,
            session_period_hours=12.0,
            phase=0.0,
            **spec_kwargs,
        )
        samples = [node.is_online(day / 100.0) for day in range(0, 1000)]
        online_share = sum(samples) / len(samples)
        assert 0.4 < online_share < 0.6

    def test_core_nodes_cover_whole_window(self, population):
        nodes, _, _ = population
        core = [
            n for n in nodes if n.arrival_day == 0.0 and n.departure_day >= 81
        ]
        assert len(core) > len(nodes) * 0.3


class TestVersionModel:
    def test_geth_versions_advance_with_releases(self):
        model = default_geth_model()
        behaviour = {"kind": "updater", "lag_days": 1.0, "beta": False}
        early = model.version_at(behaviour, day=0.0)
        late = model.version_at(behaviour, day=80.0)

        def as_tuple(version):
            return tuple(int(part) for part in version.lstrip("v").split("."))

        assert as_tuple(early) < as_tuple(late)
        assert late == "v1.8.12"

    def test_legacy_nodes_never_update(self):
        model = default_geth_model()
        behaviour = {"kind": "legacy", "version": "v1.6.7"}
        assert model.version_at(behaviour, day=80.0) == "v1.6.7"

    def test_pinned_nodes_stay_pinned(self):
        model = default_geth_model()
        behaviour = {"kind": "pinned", "pin_day": -120.0}
        assert model.version_at(behaviour, 0.0) == model.version_at(behaviour, 80.0)

    def test_client_strings_parse(self):
        rng = random.Random(5)
        from repro.analysis.clients import parse_client_id

        geth = parse_client_id(geth_client_string("v1.8.11", rng))
        assert geth.family == "geth"
        assert geth.version == (1, 8, 11)
        assert geth.is_stable
        unstable = parse_client_id(geth_client_string("v1.8.11", rng, unstable=True))
        assert unstable.channel == "unstable"
        parity = parse_client_id(parity_client_string("v1.10.6", rng))
        assert parity.family == "parity"
        assert parity.version == (1, 10, 6)


class TestAbusiveFactories:
    def test_flagship_runs_whole_window(self, population):
        _, factories, _ = population
        flagship = factories[0]
        assert flagship.arrival_day == 0.0
        assert "ethereumjs-devp2p/v1.0.0" in flagship.client_string

    def test_others_are_bursty(self, population):
        _, factories, _ = population
        for factory in factories[1:]:
            assert factory.departure_day - factory.arrival_day < 2.0

    def test_scanner_nodes_flagged(self, population):
        nodes, _, _ = population
        scanners = [n for n in nodes if n.runs_nodefinder]
        assert len(scanners) == FOREIGN_SCANNER_COUNT
        for scanner in scanners:
            assert "nodefinder" in scanner.client_string
