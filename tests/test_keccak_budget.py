"""Permutation budgets: where scalar ``keccak_f1600`` calls are allowed.

A counting wrapper around the scalar permutation attributes every call to
the code that asked for it (by walking the Python stack), so a change that
starts hashing something per tick, or re-hashing a known answer per packet,
fails here as a count — before it shows up as a slower benchmark.
"""

import asyncio
import collections
import random
import sys

import pytest

import repro.crypto.keccak as keccak_mod
from repro.crypto.keys import PrivateKey
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
    from then on is filed under the first of ``sites`` (function names,
    checked in the given order) found on the calling stack, else under
    ``"elsewhere"``.  Returns the counter."""
    counts: collections.Counter = collections.Counter()
    scalar = keccak_mod.keccak_f1600
    sites: tuple = ()

    def counting(state):
        on_stack = set()
        frame = sys._getframe(1)
        while frame is not None:
            on_stack.add(frame.f_code.co_name)
            frame = frame.f_back
        counts[next((s for s in sites if s in on_stack), "elsewhere")] += 1
        return scalar(state)

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
    if not keccak_mod._HAVE_BATCH:
        pytest.skip("without numpy a tick-plan block is scalar hashes")
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
