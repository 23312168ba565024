"""World behaviour tests: geography, dialing, discovery, factories."""

import copy
import random
from collections import Counter

import pytest

from repro.chain.genesis import custom_genesis
from repro.chain.synthetic import _HASH_MEMO, _SEED_MEMO
from repro.crypto.keccak import keccak256
from repro.discovery.distance import parity_log_distance, xor_distance
from repro.discovery.enode import _ID_HASH_MEMO, cached_id_hash
from repro.errors import SimulationError
from repro.units import SECONDS_PER_DAY
from repro.simnet.geo import (
    AS_DISTRIBUTION,
    COUNTRY_DISTRIBUTION,
    GeoModel,
)
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.records import DialOutcome
from repro.nodefinder.scanner import NodeFinderConfig, NodeFinderInstance
from repro.simnet.adversary import AdversaryCampaign, AdversaryConfig, AttackerNode
from repro.simnet.node import SimNode
from repro.simnet.population import PopulationBuilder, PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig


@pytest.fixture(scope="module")
def world():
    return SimWorld(
        WorldConfig(
            population=PopulationConfig(total_nodes=400, measurement_days=3.0, seed=3),
            seed=3,
        )
    )


class TestGeoModel:
    def test_country_marginals(self):
        geo = GeoModel(random.Random(1))
        locations = [geo.assign() for _ in range(4000)]
        countries = Counter(location.country for location in locations)
        assert 0.38 < countries["US"] / len(locations) < 0.48   # paper: 43.2%
        assert 0.09 < countries["CN"] / len(locations) < 0.17   # paper: 12.9%

    def test_top8_as_concentration(self):
        geo = GeoModel(random.Random(2))
        locations = [geo.assign() for _ in range(4000)]
        counts = Counter(location.asn for location in locations)
        top8 = sum(count for _, count in counts.most_common(8)) / len(locations)
        assert 0.38 < top8 < 0.52  # paper: 44.8%

    def test_unique_ips(self):
        geo = GeoModel(random.Random(3))
        ips = [geo.assign().ip for _ in range(2000)]
        assert len(set(ips)) == len(ips)

    def test_rtt_positive_and_region_sensitive(self):
        geo = GeoModel(random.Random(4))
        us = next(loc for loc in iter(geo.assign, None) if loc.region == "na")
        asia = next(loc for loc in iter(geo.assign, None) if loc.region == "asia")
        rng = random.Random(5)
        same = sum(geo.rtt(us, us, rng) for _ in range(50)) / 50
        cross = sum(geo.rtt(us, asia, rng) for _ in range(50)) / 50
        assert 0 < same < cross

    def test_distribution_tables_sum_to_one(self):
        assert sum(share for _, share, _ in COUNTRY_DISTRIBUTION) == pytest.approx(1.0, abs=0.01)
        assert sum(share for _, share, _ in AS_DISTRIBUTION) < 1.0


class TestDialing:
    def test_dial_unknown_node_times_out(self, world):
        from repro.simnet.node import NodeAddress

        result = world.dial(
            NodeAddress(b"\x99" * 64, "1.2.3.4", 30303, 30303),
            "dynamic-dial",
            world.geo.assign(),
        )
        assert result.outcome is DialOutcome.TIMEOUT

    def test_dial_unreachable_node_times_out(self, world):
        node = next(
            n for n in world.nodes.values()
            if not n.spec.reachable and n.spec.is_online(world.day)
        )
        result = world.dial(world.node_address(node), "dynamic-dial", world.geo.assign())
        assert result.outcome is DialOutcome.TIMEOUT

    def test_incoming_from_unreachable_node_succeeds(self, world):
        node = next(
            n for n in world.nodes.values()
            if not n.spec.reachable
            and n.spec.is_online(world.day)
            and n.spec.service == "eth"
        )
        # retry a few times: stochastic per-dial failures exist
        outcomes = set()
        for _ in range(20):
            result = node.handle_connection(
                now=world.now,
                connection_type="incoming",
                chain=world.chain_for(node.spec),
                world_height=world.mainnet_height,
                rtt=0.05,
                stream=random.Random(0),
            )
            outcomes.add(result.outcome)
        assert DialOutcome.TIMEOUT not in outcomes
        assert (
            DialOutcome.FULL_HARVEST in outcomes
            or DialOutcome.HELLO_NO_STATUS in outcomes
        )

    def test_full_node_sends_too_many_peers(self, world):
        node = next(
            n for n in world.nodes.values()
            if n.occupancy > 0.9 and n.spec.reachable and n.spec.is_online(world.day)
        )
        from repro.devp2p.messages import DisconnectReason

        reasons = []
        for _ in range(30):
            result = world.dial(
                world.node_address(node), "static-dial", world.geo.assign()
            )
            if result.disconnect_reason is not None:
                reasons.append(result.disconnect_reason)
        assert DisconnectReason.TOO_MANY_PEERS in reasons

    def test_harvest_contains_status_and_dao(self, world):
        node = next(
            n for n in world.nodes.values()
            if n.spec.is_mainnet and n.occupancy < 0.9
            and n.spec.reachable and n.spec.is_online(world.day)
        )
        for _ in range(50):
            result = world.dial(
                world.node_address(node), "static-dial", world.geo.assign()
            )
            if result.outcome is DialOutcome.FULL_HARVEST:
                assert result.network_id == 1
                assert result.genesis_hash == world.mainnet.genesis_hash
                assert result.dao_side == "supports"
                assert result.best_block is not None
                assert result.client_id
                break
        else:
            pytest.fail("never harvested the node")

    def test_classic_node_opposes_fork(self, world):
        node = next(
            n for n in world.nodes.values() if n.spec.network_name == "classic"
        )
        answer = node.dao_answer(world.mainnet_height)
        if node.best_block(world.mainnet_height) >= 1_920_000:
            assert answer == "opposes"
        else:
            assert answer == "empty"

    def test_stuck_byzantium_best_block(self, world):
        from repro.chain.forks import BYZANTIUM_BLOCK

        stuck = [
            n for n in world.nodes.values()
            if n.spec.freshness == "stuck-byzantium"
        ]
        for node in stuck:
            assert node.best_block(world.mainnet_height) == BYZANTIUM_BLOCK + 1


class TestDiscoveryPlumbing:
    def test_find_node_query_answers_from_reachable_online(self, world):
        node = next(
            n for n in world.nodes.values()
            if n.spec.reachable and n.spec.is_online(world.day) and n.neighbors
        )
        answer = world.find_node_query(world.node_address(node), b"\x07" * 64)
        assert answer is not None
        assert 0 < len(answer) <= 16

    def test_find_node_query_unreachable_is_silent(self, world):
        node = next(
            n for n in world.nodes.values() if not n.spec.reachable
        )
        assert world.find_node_query(world.node_address(node), b"\x07" * 64) is None

    def test_find_node_query_takes_a_node_id_or_its_hash(self, world):
        node = next(
            n for n in world.nodes.values()
            if n.spec.reachable and n.spec.is_online(world.day) and n.neighbors
        )
        address = world.node_address(node)
        target = b"\x07" * 64
        assert world.find_node_query(address, keccak256(target)) == (
            world.find_node_query(address, target)
        )

    @pytest.mark.parametrize("metric", ["geth", "parity"])
    def test_find_node_equals_a_full_sort(self, world, metric):
        # the reference ranks every neighbour from its bytes-level hash:
        # XOR distance for Geth; Parity's summed-byte distance, then the
        # low 16 bits of the ID hash as the tie-break
        def reference_key(peer, target):
            if metric == "geth":
                return xor_distance(peer.id_hash, target)
            return (parity_log_distance(peer.id_hash, target),
                    int.from_bytes(peer.id_hash[-2:], "big"))

        rng = random.Random(11)
        nodes = [n for n in world.nodes.values()
                 if n.spec.metric == metric and len(n.neighbors) > 16]
        ties = 0
        for node in nodes[:25]:
            for _ in range(40):
                target = rng.randbytes(32)
                reference = sorted(node.neighbors,
                                   key=lambda peer: reference_key(peer, target))
                assert node.find_node(target) == reference[:16]
                assert node.find_node(target, count=5) == reference[:5]
                firsts = [reference_key(peer, target) for peer in reference[:17]]
                if metric == "parity":
                    ties += len({d for d, _ in firsts}) < len(firsts)
        if metric == "parity":
            assert ties > 0  # the 16-bit tie-break decided some answers

    @pytest.mark.parametrize("size", [0, 31, 33, 63, 65])
    def test_find_node_query_rejects_other_target_lengths(self, world, size):
        # whoever is asked, Geth-metric nodes included (only Parity's
        # distance function used to notice a 31- or 33-byte "hash")
        for node in list(world.nodes.values())[:5]:
            with pytest.raises(SimulationError, match=f"got {size} bytes"):
                world.find_node_query(world.node_address(node), b"\x07" * size)

    def test_parity_answers_differ_from_geth(self, world):
        target = b"\x55" * 32
        node = next(
            n for n in world.nodes.values()
            if n.spec.metric == "parity" and len(n.neighbors) > 20
        )
        parity_answer = node.find_node(target, count=10)
        node.spec.metric = "geth"
        geth_answer = node.find_node(target, count=10)
        node.spec.metric = "parity"
        assert [n.spec.node_id for n in parity_answer] != [
            n.spec.node_id for n in geth_answer
        ]

    def test_bootstrap_addresses_stable(self, world):
        bootstrap = world.bootstrap_addresses()
        assert bootstrap
        assert bootstrap == world.bootstrap_addresses()
        for address in bootstrap:
            node = world.nodes[address.node_id]
            assert node.spec.reachable
            assert node.spec.uptime_fraction >= 0.999


class TestWorldDynamics:
    def test_chain_grows_with_time(self):
        small = SimWorld(
            WorldConfig(
                population=PopulationConfig(total_nodes=50, measurement_days=2.0, seed=9)
            )
        )
        height_before = small.mainnet_height
        small.run_days(1.0)
        assert small.mainnet_height > height_before
        # ~5,760 blocks per day at 15s intervals
        assert small.mainnet_height - height_before == pytest.approx(5760, rel=0.05)

    def test_factory_ids_mostly_fresh(self, world):
        factory = world.factories[0]
        ids = {factory.current_node_id(float(i)) for i in range(50)}
        assert len(ids) > 35  # 80% fresh per call

    def test_factory_dial_result_shape(self, world):
        factory = world.factories[0]
        result = factory.dial_result(0.0, world.mainnet)
        assert result.best_hash == world.mainnet.genesis_hash
        assert result.network_id == 1
        assert result.client_id == factory.spec.client_string
        assert result.connection_type == "incoming"

    def test_ground_truth_mainnet(self, world):
        truth = world.ground_truth_mainnet(world.day)
        assert truth
        for node in truth[:20]:
            assert node.spec.is_mainnet


class TestBuildTimeHashing:
    """The build hashes in bulk; every value must equal the scalar one."""

    CONFIG = PopulationConfig(total_nodes=300, measurement_days=1.0, seed=2018)

    @pytest.fixture(scope="class")
    def built(self):
        return SimWorld(WorldConfig(population=self.CONFIG, seed=7))

    def test_genesis_hashes_resolved_from_names(self, built):
        # replay the builder: before resolution a non-Mainnet genesis is
        # still the chain *name*, drawn from the same RNG sequence
        builder = PopulationBuilder(self.CONFIG)
        specs = [node.spec for node in built.nodes.values()]
        named = 0
        for spec in specs:
            raw = builder.build_node().genesis_hash
            assert not isinstance(spec.genesis_hash, str)
            if isinstance(raw, str):
                named += 1
                assert spec.genesis_hash == custom_genesis(raw).hash()
            else:
                assert spec.genesis_hash == raw
        assert named > 50

    def test_node_id_hashes(self, built):
        for node in built.nodes.values():
            assert node.id_hash == keccak256(node.spec.node_id)
            assert cached_id_hash(node.spec.node_id) == node.id_hash

    def test_chain_seeds_and_warmed_best_hashes(self, built):
        chains = {chain._seed: chain for chain in built._chains.values()}
        assert len(chains) > 30
        for seed, chain in chains.items():
            assert seed == keccak256(
                b"chain:" + chain.name.encode("utf-8") + chain.genesis_hash
            )
        warmed = {key for key in _HASH_MEMO if key[0] in chains}
        for seed, height in warmed:
            assert _HASH_MEMO[seed, height] == keccak256(
                seed + height.to_bytes(8, "big")
            )
        # ... and the warm covered every best-hash a node can advertise
        for node in built.nodes.values():
            if node.spec.service == "eth" and node.spec.freshness != "stuck-byzantium":
                chain = built.chain_for(node.spec)
                best = chain.height - node.spec.lag_blocks
                assert best <= 0 or (chain._seed, best) in warmed

    def test_scalar_fallback_builds_the_same_world(self, built, monkeypatch):
        # a crossover nothing reaches sends every batched call site through
        # scalar keccak256, which must produce the same bytes
        monkeypatch.setattr("repro.crypto.keccak._BATCH_CROSSOVER", 1 << 62)
        for memo in (_HASH_MEMO, _SEED_MEMO, _ID_HASH_MEMO):
            memo.clear()  # pure caches: force every hash to be recomputed
        small = PopulationConfig(total_nodes=60, measurement_days=1.0, seed=2018)
        scalar = SimWorld(WorldConfig(population=small, seed=7))
        pairs = list(zip(scalar.nodes.values(), built.nodes.values()))[:60]
        for node, twin in pairs:
            assert node.spec == twin.spec and node.id_hash == twin.id_hash
            chain, other = scalar.chain_for(node.spec), built.chain_for(twin.spec)
            assert chain._seed == other._seed
            assert chain.block_hash(1000) == other.block_hash(1000)


class _EagerStream(random.Random):
    """``Random(seed)`` read straight through: the re-seed and the skip a
    node's refill asks for are ignored, so the node reads this generator's
    next draws, as a node that kept its own generator would."""

    def seed(self, *args, **kwargs):
        if not hasattr(self, "_seeded"):
            super().seed(*args, **kwargs)
            self._seeded = True

    def getrandbits(self, k):
        return 0


class TestLazyNodeStream:
    """A node holds its outcome stream as a position, not a generator.

    ``Random(_seed)`` is the stream; the node keeps how many ``random()``
    draws it has used (the occupancy draw included) and a short read-ahead
    that a refill takes from a re-seeded scratch generator.  Every dial
    outcome is the one an eager ``Random(_seed)`` advanced by the occupancy
    draw would give.
    """

    POPULATION = PopulationConfig(total_nodes=300, seed=2018, measurement_days=1.0)

    @pytest.fixture
    def fresh(self):
        return SimWorld(WorldConfig(population=self.POPULATION, seed=7))

    @staticmethod
    def _held(node):
        return [
            getattr(node, slot, None)
            for cls in type(node).__mro__
            for slot in getattr(cls, "__slots__", ())
        ]

    def test_a_built_world_holds_no_generator(self, fresh):
        for node in fresh.nodes.values():
            assert node._ahead is None
            assert not any(isinstance(held, random.Random) for held in self._held(node))

    def test_a_dial_stopped_at_the_liveness_gate_builds_none(self, fresh):
        offline = next(
            n for n in fresh.nodes.values() if not n.spec.is_online(fresh.day)
        )
        unreachable = next(
            n for n in fresh.nodes.values()
            if not n.spec.reachable and n.spec.is_online(fresh.day)
        )
        for node, kind in ((offline, "incoming"), (unreachable, "dynamic-dial")):
            drawn = node._drawn
            stream = random.Random(5)
            before = stream.getstate()
            result = node.handle_connection(
                now=fresh.now,
                connection_type=kind,
                chain=fresh.chain_for(node.spec),
                world_height=fresh.mainnet_height,
                rtt=0.05,
                stream=stream,
            )
            assert result.outcome is DialOutcome.TIMEOUT
            assert node._ahead is None
            assert node._drawn == drawn
            assert stream.getstate() == before

    def test_each_occupancy_kind_dials_as_an_eager_stream_would(
        self, fresh, monkeypatch
    ):
        scanner = NodeFinderInstance(fresh, config=NodeFinderConfig(seed=1))
        AdversaryCampaign(AdversaryConfig(sybil_count=4, phantom_pool=4)).launch(
            fresh, victim_node_id=scanner.node_id
        )
        scanner.start()

        def online(predicate):
            # outbound dials to an unreachable one stop at the gate, inbound
            # ones draw: the sequence below mixes both
            return next(
                n for n in fresh.nodes.values()
                if n.spec.is_online(fresh.day) and predicate(n)
            )

        kinds = {
            "geth mainnet": online(
                lambda n: n.spec.client_family == "geth"
                and n.spec.network_name == "mainnet"
            ),
            "other eth": online(
                lambda n: n.spec.service == "eth"
                and n.spec.network_name not in ("mainnet", "classic")
            ),
            "non-eth": online(lambda n: n.spec.service != "eth"),
            "scanner": fresh.nodes[scanner.node_id],
            "attacker": online(lambda n: isinstance(n, AttackerNode)),
        }
        stream = random.Random(0)  # what the world lends a dialled node
        refills = Counter()
        refill = SimNode._refill

        def counted(node, lent):
            refills[node.spec.node_id, lent is stream] += 1
            return refill(node, lent)

        monkeypatch.setattr(SimNode, "_refill", counted)
        for kind, node in kinds.items():
            assert node._ahead is None, kind
            reference = copy.copy(node)  # same occupancy, overrides included
            eager = _EagerStream(node._seed)
            occupancy, drawn = reference._draw_occupancy(eager)
            assert drawn == node._drawn, kind
            if kind in ("geth mainnet", "other eth", "non-eth"):
                assert occupancy == node.occupancy, kind
            for step in range(720):
                kwargs = dict(
                    now=fresh.now + step,  # one second apart: the node stays online
                    connection_type=("dynamic-dial", "static-dial", "incoming")[step % 3],
                    chain=fresh.chain_for(node.spec),
                    world_height=fresh.mainnet_height,
                    rtt=0.05,
                )
                assert node.handle_connection(**kwargs, stream=stream) == (
                    reference.handle_connection(**kwargs, stream=eager)
                ), (kind, step)
            # past the Twister's 312-draw block, over several refills
            assert node._drawn == reference._drawn > 312, kind
            assert refills[node.spec.node_id, True] >= 2, kind
            assert not any(isinstance(held, random.Random) for held in self._held(node))
            # the next draw is the next of Random(seed) read one by one
            one_by_one = random.Random(node._seed)
            for _ in range(node._drawn):
                one_by_one.random()
            assert node._random(stream) == one_by_one.random(), kind

    def test_smoke_crawl_reads_ahead_for_thirty_of_305(self, fresh):
        run_fleet(
            fresh,
            instance_count=1,
            days=0.05,
            config=NodeFinderConfig(seed=1, shards=1),
        )
        reading = sum(node._ahead is not None for node in fresh.nodes.values())
        assert (reading, len(fresh.nodes)) == (30, 305)
        assert all(
            node._drawn > 0 for node in fresh.nodes.values() if node._ahead is not None
        )
