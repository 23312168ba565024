"""k-bucket and routing-table tests (Kademlia eviction semantics, §2.1)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keccak import keccak256
from repro.discovery.distance import geth_log_distance, parity_log_distance
from repro.discovery.enode import (
    ENode,
    cached_id_hash,
    cached_id_hash_int,
    parse_enode_url,
    warm_id_hashes,
)
from repro.discovery.kbucket import KBucket
from repro.discovery.routing import RoutingTable
from repro.errors import DiscoveryError

_COUNTER = itertools.count(1)


def make_node(seed: int | None = None) -> ENode:
    if seed is None:
        seed = next(_COUNTER) + 1_000_000
    rng = random.Random(seed)
    return ENode(
        node_id=rng.randbytes(64),
        ip=f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
        udp_port=30303,
        tcp_port=30303,
    )


class TestENode:
    def test_url_roundtrip(self):
        node = make_node(1)
        assert parse_enode_url(node.to_url()) == node

    def test_url_with_discport(self):
        node = ENode(make_node(2).node_id, "1.2.3.4", udp_port=30301, tcp_port=30303)
        url = node.to_url()
        assert "discport=30301" in url
        assert parse_enode_url(url) == node

    def test_bad_scheme(self):
        with pytest.raises(DiscoveryError):
            parse_enode_url("http://example.com")

    def test_bad_node_id(self):
        with pytest.raises(DiscoveryError):
            parse_enode_url("enode://abcd@1.2.3.4:30303")

    def test_missing_port(self):
        node_id = "ab" * 64
        with pytest.raises(DiscoveryError):
            parse_enode_url(f"enode://{node_id}@1.2.3.4")

    def test_bad_ip(self):
        with pytest.raises(ValueError):
            ENode(b"\x01" * 64, "999.1.1.1", 1, 1)

    def test_bad_node_id_length(self):
        with pytest.raises(DiscoveryError):
            ENode(b"\x01" * 63, "1.1.1.1", 1, 1)

    def test_bad_port(self):
        with pytest.raises(DiscoveryError):
            ENode(b"\x01" * 64, "1.1.1.1", 70000, 1)

    def test_id_hash(self):
        node = make_node(3)
        assert node.id_hash == keccak256(node.node_id)

    def test_warmed_id_hashes_match_lazy_ones(self):
        ids = [bytes([0xA0, i]) * 32 for i in range(40)]
        assert warm_id_hashes(ids) == 40
        assert warm_id_hashes(ids) == 0
        for node_id in ids:
            assert cached_id_hash(node_id) == keccak256(node_id)
            assert cached_id_hash_int(node_id) == int.from_bytes(
                keccak256(node_id), "big"
            )

    def test_ipv6(self):
        node = ENode(b"\x01" * 64, "::1", 30303, 30303)
        assert parse_enode_url(node.to_url()).ip == "::1"


class TestKBucket:
    def test_insert_until_full(self):
        bucket = KBucket(size=4)
        nodes = [make_node() for _ in range(4)]
        for node in nodes:
            assert bucket.touch(node) is None
        assert bucket.is_full
        assert bucket.nodes == nodes

    def test_full_bucket_returns_eviction_candidate(self):
        bucket = KBucket(size=2)
        old, mid, new = make_node(), make_node(), make_node()
        bucket.touch(old)
        bucket.touch(mid)
        candidate = bucket.touch(new)
        assert candidate == old
        assert new not in bucket
        assert new in bucket.replacement_cache

    def test_eviction_favours_old_nodes(self):
        """Kademlia keeps the old node if it answers the PING (§2.1)."""
        bucket = KBucket(size=2)
        old, mid, new = make_node(), make_node(), make_node()
        bucket.touch(old)
        bucket.touch(mid)
        candidate = bucket.touch(new)
        bucket.keep(candidate.node_id)  # old node answered
        assert old in bucket and new not in bucket
        # old moved to most-recently-seen
        assert bucket.nodes[-1] == old

    def test_evict_promotes_replacement(self):
        bucket = KBucket(size=2)
        old, mid, new = make_node(), make_node(), make_node()
        bucket.touch(old)
        bucket.touch(mid)
        bucket.touch(new)
        promoted = bucket.evict(old.node_id)
        assert promoted == new
        assert old not in bucket and new in bucket

    def test_touch_refreshes_position(self):
        bucket = KBucket(size=3)
        a, b, c = make_node(), make_node(), make_node()
        for node in (a, b, c):
            bucket.touch(node)
        bucket.touch(a)
        assert bucket.nodes == [b, c, a]
        assert bucket.least_recently_seen() == b

    def test_touch_updates_endpoint(self):
        bucket = KBucket(size=3)
        node = make_node()
        bucket.touch(node)
        moved = ENode(node.node_id, "10.9.9.9", 1024, 1024)
        bucket.touch(moved)
        assert bucket.nodes == [moved]

    def test_replacement_cache_bounded(self):
        bucket = KBucket(size=1, replacement_cache_size=2)
        bucket.touch(make_node())
        extras = [make_node() for _ in range(4)]
        for node in extras:
            bucket.touch(node)
        assert bucket.replacement_cache == extras[-2:]

    def test_note_failure_drops_after_max(self):
        bucket = KBucket(size=2)
        node = make_node()
        bucket.touch(node)
        for _ in range(4):
            assert not bucket.note_failure(node.node_id, max_fails=5)
        assert bucket.note_failure(node.node_id, max_fails=5)
        assert node not in bucket

    def test_remove(self):
        bucket = KBucket(size=2)
        node = make_node()
        bucket.touch(node)
        assert bucket.remove(node.node_id)
        assert not bucket.remove(node.node_id)


class TestRoutingTable:
    def make_table(self, **kwargs) -> RoutingTable:
        return RoutingTable.for_node_id(random.Random(0).randbytes(64), **kwargs)

    def test_add_and_lookup(self):
        # bucket_size 64 so 50 random nodes never overflow a bucket
        table = self.make_table(bucket_size=64)
        nodes = [make_node() for _ in range(50)]
        for node in nodes:
            table.add(node)
        assert len(table) == 50
        for node in nodes:
            assert table.get(node.node_id) == node

    def test_default_bucket_size_caps_crowded_buckets(self):
        """Half of random nodes land at distance 256; k=16 caps that bucket."""
        table = self.make_table()
        for _ in range(100):
            table.add(make_node())
        histogram = table.bucket_fill_histogram()
        assert histogram.get(256, 0) == 16
        assert len(table) < 100

    def test_own_id_ignored(self):
        own = random.Random(0).randbytes(64)
        table = RoutingTable.for_node_id(own)
        table.add(ENode(own, "1.1.1.1", 1, 1))
        assert len(table) == 0

    def test_closest_to_orders_by_xor(self):
        table = self.make_table(bucket_size=128)
        nodes = [make_node() for _ in range(100)]
        for node in nodes:
            table.add(node)
        target = keccak256(b"target")
        closest = table.closest_to(target, count=10)
        target_int = int.from_bytes(target, "big")
        distances = [int.from_bytes(n.id_hash, "big") ^ target_int for n in closest]
        assert distances == sorted(distances)
        all_distances = sorted(
            int.from_bytes(n.id_hash, "big") ^ target_int for n in nodes
        )
        assert distances == all_distances[:10]

    def test_closest_in_buckets_agrees_roughly(self):
        table = self.make_table()
        for _ in range(200):
            table.add(make_node())
        target = keccak256(b"t2")
        exact = {n.node_id for n in table.closest_to(target, 8)}
        bucketed = {n.node_id for n in table.closest_in_buckets(target, 8)}
        assert len(exact & bucketed) >= 4  # bucket walk finds most of them

    def test_full_bucket_eviction_flow(self):
        table = self.make_table(bucket_size=2)
        # fill one specific bucket by brute-forcing nodes at equal distance
        groups: dict[int, list[ENode]] = {}
        while True:
            node = make_node()
            index = table.bucket_index_of(node)
            groups.setdefault(index, []).append(node)
            if len(groups[index]) == 3:
                a, b, c = groups[index]
                break
        table.add(a)
        table.add(b)
        candidate = table.add(c)
        assert candidate == a
        replacement = table.evict(a)
        assert replacement == c
        assert table.get(c.node_id) == c
        assert table.get(a.node_id) is None

    def test_confirm_alive_keeps_candidate(self):
        table = self.make_table(bucket_size=1)
        groups: dict[int, list[ENode]] = {}
        while True:
            node = make_node()
            index = table.bucket_index_of(node)
            groups.setdefault(index, []).append(node)
            if len(groups[index]) == 2:
                a, b = groups[index]
                break
        table.add(a)
        candidate = table.add(b)
        assert candidate == a
        table.confirm_alive(a)
        assert table.get(a.node_id) == a
        assert table.get(b.node_id) is None

    def test_metric_changes_bucket_layout(self):
        """The §6.3 friction root cause: same nodes, different buckets."""
        own = random.Random(7).randbytes(64)
        geth_table = RoutingTable.for_node_id(own, metric=geth_log_distance)
        parity_table = RoutingTable.for_node_id(own, metric=parity_log_distance)
        nodes = [make_node() for _ in range(150)]
        for node in nodes:
            geth_table.add(node)
            parity_table.add(node)
        geth_hist = geth_table.bucket_fill_histogram()
        parity_hist = parity_table.bucket_fill_histogram()
        assert geth_hist != parity_hist
        # Geth files most nodes in bucket 256; Parity's mode is near 224.
        assert max(geth_hist, key=geth_hist.get) >= 254
        assert max(parity_hist, key=parity_hist.get) < 245

    def test_random_nodes_sampling(self):
        table = self.make_table()
        for _ in range(30):
            table.add(make_node())
        sample = table.random_nodes(10, random.Random(3))
        assert len(sample) == 10
        assert len({n.node_id for n in sample}) == 10

    def test_note_failure_removal(self):
        table = self.make_table()
        node = make_node()
        table.add(node)
        assert table.note_failure(node, max_fails=1)
        assert table.get(node.node_id) is None

    def test_extend(self):
        table = self.make_table()
        table.extend(make_node() for _ in range(5))
        assert len(table) == 5

    def test_iter(self):
        table = self.make_table()
        nodes = {make_node().node_id for _ in range(0)}
        added = [make_node() for _ in range(5)]
        table.extend(added)
        assert {n.node_id for n in table} == {n.node_id for n in added}
