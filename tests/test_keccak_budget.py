"""Permutation budgets: where scalar ``keccak_f1600`` calls are allowed.

A counting wrapper around the scalar permutation attributes every call to
the code that asked for it (by walking the Python stack), so a change that
starts hashing something per tick, or re-hashing a known answer per packet,
fails here as a count — before it shows up as a slower benchmark.  A
two-state call (``keccak_f1600(lanes, *PAIR)``) is one call, counted again
under ``"<site> two-state"``.  A loopback lookup's ECDSA work -- signatures,
hinted signer checks, full key recoveries -- is pinned the same way.
"""

import asyncio
import collections
import random
import sys

import pytest

import repro.crypto.keccak as keccak_mod
from repro.crypto import secp256k1
from repro.crypto._keccak_f import PAIR
from repro.crypto.keys import PrivateKey
from repro.discovery.lookup import Lookup
from repro.discovery.packets import (
    Endpoint,
    NeighborRecord,
    NeighborsPacket,
    PingPacket,
    decode_packet,
    encode_packet,
)
from repro.discovery.protocol import DiscoveryService
from repro.fullnode import start_localhost_network
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.records import DialOutcome
from repro.nodefinder.scanner import NodeFinderConfig
from repro.nodefinder.wire import harvest
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig


@pytest.fixture
def permutations(monkeypatch):
    """``permutations(sites)`` starts counting: every scalar permutation
    from then on, one- or two-state, is filed under the first of ``sites``
    (function names, checked in the given order) found on the calling
    stack, else under ``"elsewhere"``; a two-state one also under
    ``"<site> two-state"``.  Returns the counter."""
    counts: collections.Counter = collections.Counter()
    scalar = keccak_mod.keccak_f1600
    sites: tuple = ()

    def counting(state, *constants):
        on_stack = set()
        frame = sys._getframe(1)
        while frame is not None:
            on_stack.add(frame.f_code.co_name)
            frame = frame.f_back
        site = next((s for s in sites if s in on_stack), "elsewhere")
        counts[site] += 1
        if constants and constants[0] == PAIR[0]:
            counts[f"{site} two-state"] += 1
        return scalar(state, *constants)

    def start(*names: str) -> collections.Counter:
        nonlocal sites
        sites = names
        monkeypatch.setattr(keccak_mod, "keccak_f1600", counting)
        return counts

    return start


def test_sim_crawl_hashes_no_lookup_target_one_at_a_time(permutations):
    """A crawl's discovery ticks spend no scalar permutation: targets are
    hashed a tick-plan block at a time, and every ID a lookup meets was
    hashed when the world was built."""
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=300, measurement_days=1.0, seed=2018
            ),
            seed=7,
        )
    )
    counts = permutations("_discovery_tick", "_lookup")
    fleet = run_fleet(
        world, instance_count=1, days=0.1, config=NodeFinderConfig(seed=1, shards=2)
    )
    ticks = fleet.merged_stats.total("discovery_attempts")
    assert ticks > 600  # into a third tick-plan block
    assert counts["_discovery_tick"] == counts["_lookup"] == 0
    # what is left: IDs minted mid-crawl (abusive factories, a handful per
    # delivery) entering the routing table on an inbound connection
    assert counts["elsewhere"] < ticks / 10


def test_loopback_lookup_hashes_each_target_once_per_end(permutations):
    """Outside the two wire-mandated hashes per packet per end, a discv4
    lookup costs one target hash on the client and one per FINDNODE served."""

    async def scenario(lookups: int) -> collections.Counter:
        client, server = (DiscoveryService(PrivateKey(7100 + i)) for i in range(2))
        try:
            await server.listen()
            await client.listen()
            client.bootstrap_nodes.append(server.local_enode)
            await client.bond(server.local_enode)
            await client.self_lookup()  # both node-ID hashes are memoised now
            served_before = server.stats["neighbors_sent"]
            counts = permutations(
                "encode_packet", "decode_packet", "_handle_findnode", "lookup"
            )
            rng = random.Random(3)
            for _ in range(lookups):
                found = await client.lookup(rng.randbytes(64))
                assert [node.node_id for node in found] == [server.node_id]
            assert server.stats["neighbors_sent"] - served_before == lookups
            return counts
        finally:
            client.close()
            server.close()
            await asyncio.sleep(0)

    counts = asyncio.run(scenario(4))
    assert counts["encode_packet"] > 0 and counts["decode_packet"] > 0
    assert counts["lookup"] == 4
    assert counts["_handle_findnode"] == 4
    assert counts["elsewhere"] == 0


def test_bonded_lookup_checks_signers_and_signs_each_round_once(
    permutations, monkeypatch
):
    """A lookup among bonded peers recovers no key: each end already holds
    the other's, so every datagram costs one hinted check.  The client signs
    a round's FIND_NODE once, whatever the number of candidates: one
    signature and one encode's permutations (3) per round."""

    async def scenario() -> tuple[collections.Counter, collections.Counter, list]:
        client = DiscoveryService(PrivateKey(7200))
        servers = [DiscoveryService(PrivateKey(7201 + i)) for i in range(3)]
        try:
            for service in [client, *servers]:
                await service.listen()
            for server in servers:
                assert await client.bond(server.local_enode)
            ops: collections.Counter = collections.Counter()
            signers: list = []
            signed_by, recover, sign = (
                secp256k1._signed_by, secp256k1._recover, secp256k1.sign_digest
            )
            next_round = Lookup.next_round

            def counting_signed_by(*args):
                held = signed_by(*args)
                ops["hint held" if held else "hint failed"] += 1
                return held

            def counting_recover(*args):
                ops["recovered"] += 1
                return recover(*args)

            def counting_sign(digest, private_key):
                signers.append(private_key)
                return sign(digest, private_key)

            def counting_round(self):
                candidates = next_round(self)
                ops["rounds"] += bool(candidates)
                return candidates

            monkeypatch.setattr(secp256k1, "_signed_by", counting_signed_by)
            monkeypatch.setattr(secp256k1, "_recover", counting_recover)
            monkeypatch.setattr(secp256k1, "sign_digest", counting_sign)
            monkeypatch.setattr(Lookup, "next_round", counting_round)
            counts = permutations("_findnode_datagram")
            await client.self_lookup()
            assert client.stats["findnodes_sent"] == 3
            return ops, counts, signers
        finally:
            for service in [client, *servers]:
                service.close()
            await asyncio.sleep(0)

    ops, counts, signers = asyncio.run(scenario())
    assert ops == {"rounds": 1, "hint held": 6}  # 3 FIND_NODE + 3 NEIGHBORS
    assert signers.count(7200) == ops["rounds"]
    assert sorted(signers) == [7200, 7201, 7202, 7203]
    assert counts["_findnode_datagram"] == 3 * ops["rounds"]


def test_decoded_packet_hashes_envelope_and_body_together(permutations):
    """A decoded datagram costs one permutation per envelope block, and the
    body digest rides along: ``max(blocks)`` calls, ``min(blocks)`` of them
    two-state, whether or not the 65-byte signature adds a block."""
    key = PrivateKey(0x5EED)
    ping = PingPacket(
        version=4,
        sender=Endpoint("10.0.0.1", 30301, 30303),
        recipient=Endpoint("10.0.0.2", 30301, 30303),
        expiration=1 << 40,
    )
    packets = [ping] + [
        NeighborsPacket(
            nodes=[
                NeighborRecord("10.0.0.3", 30303, 30303, bytes([i + 1]) * 64)
                for i in range(count)
            ],
            expiration=1 << 40,
        )
        for count in (0, 1, 2, 12)
    ]
    datagrams = [encode_packet(packet, key) for packet in packets]
    counts = permutations("decode_packet")
    shapes = set()
    for datagram in datagrams:
        before = counts.copy()
        decode_packet(datagram, now=0)
        envelope_blocks = (len(datagram) - 32) // 136 + 1
        body_blocks = (len(datagram) - 32 - 65) // 136 + 1
        assert counts["decode_packet"] - before["decode_packet"] == envelope_blocks
        assert (
            counts["decode_packet two-state"] - before["decode_packet two-state"]
            == body_blocks
        )
        shapes.add((envelope_blocks, body_blocks))
    assert counts["elsewhere"] == 0
    assert {envelope > body for envelope, body in shapes} == {True, False}
    assert max(shapes) == (8, 8)  # twelve records: a full NEIGHBORS datagram


def test_loopback_harvest_digests_each_mac_state_once(permutations):
    """Both ends of a harvest frame 7 messages (HELLO, STATUS, the DAO
    header request and answer, DISCONNECT): three MAC digests per message
    per end plus one for each sponge's first frame -- 46, not the 70 of
    re-digesting a state that has not changed.  Absorbs are excluded: where
    the seed and frame bytes cross a rate block depends on the EIP-8 padding."""

    async def scenario(harvests: int) -> collections.Counter:
        [node] = await start_localhost_network(1, blocks=4)
        try:
            key = PrivateKey(0xC0FFEE)
            counts = permutations(
                "derive_secrets", "_absorb", "encode_frame", "decode_header", "decode_body"
            )
            for _ in range(harvests):
                result = await harvest(node.enode, key)
                assert result.outcome is DialOutcome.FULL_HARVEST
                while node.peers:  # the served end reads the DISCONNECT
                    await asyncio.sleep(0.01)
            return counts
        finally:
            await node.stop()

    counts = asyncio.run(scenario(3))
    assert counts["derive_secrets"] > 0 and counts["_absorb"] > 0
    assert (counts["encode_frame"], counts["decode_header"], counts["decode_body"]) == (
        3 * 23,
        3 * 9,
        3 * 14,
    )
