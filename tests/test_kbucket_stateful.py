"""Stateful property test: KBucket invariants under arbitrary operations.

Kademlia's guarantees only hold if the bucket keeps its books straight
under any interleaving of touches, keeps and evictions.  Hypothesis drives random operation sequences and checks the
invariants after every step.
"""

import random

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.discovery.enode import ENode
from repro.discovery.kbucket import KBucket

_rng = random.Random(0xBEEF)


def _fresh_node() -> ENode:
    return ENode(
        node_id=_rng.randbytes(64),
        ip=f"10.0.{_rng.randrange(256)}.{_rng.randrange(1, 255)}",
        udp_port=30303,
        tcp_port=30303,
    )


class KBucketMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bucket = KBucket(size=4, replacement_cache_size=3)
        self.ever_seen: list[ENode] = []

    nodes = Bundle("nodes")

    @rule(target=nodes)
    def make_node(self):
        node = _fresh_node()
        self.ever_seen.append(node)
        return node

    @rule(node=nodes)
    def touch(self, node):
        self.bucket.touch(node)

    @rule(node=nodes)
    def keep(self, node):
        self.bucket.keep(node.node_id)

    @rule(node=nodes)
    def evict(self, node):
        self.bucket.evict(node.node_id)

    @invariant()
    def size_bounded(self):
        assert len(self.bucket) <= self.bucket.size

    @invariant()
    def replacement_cache_bounded(self):
        assert len(self.bucket.replacement_cache) <= self.bucket.replacement_cache_size

    @invariant()
    def no_duplicate_entries(self):
        ids = [node.node_id for node in self.bucket.nodes]
        assert len(ids) == len(set(ids))

    @invariant()
    def cache_disjoint_from_bucket(self):
        bucket_ids = {node.node_id for node in self.bucket.nodes}
        for cached in self.bucket.replacement_cache:
            assert cached.node_id not in bucket_ids


KBucketMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestKBucketStateful = KBucketMachine.TestCase
