"""The iterative lookup (``repro.discovery.lookup``) against a reference.

A Hypothesis model drives one :class:`Lookup` with any interleaving of
rounds and answers — honest records, our own ID, duplicates, IDs already
met, and a responder that mints fresh IDs without end — beside the plain
algorithm it replaced on the wire: keep every node met in one dict and
sort all of it each round, here with the round cap the wire copy lacked.
"""

from typing import NamedTuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.discovery.enode import cached_id_hash_int
from repro.discovery.lookup import ALPHA, Lookup


class Peer(NamedTuple):
    node_id: bytes
    #: which answer said so: records for one ID differ between answers
    said_by: int = 0


OWN_ID = b"\x00\x01" * 32
TARGET_HASH = bytes(range(32))
TARGET = int.from_bytes(TARGET_HASH, "big")
UNIVERSE = [bytes([index, 7]) * 32 for index in range(30)]


def distance(peer: Peer) -> int:
    return cached_id_hash_int(peer.node_id) ^ TARGET


class LookupModel(RuleBasedStateMachine):
    """``Lookup`` against "sort everything met, take the first ALPHA"."""

    @initialize(
        seeds=st.lists(st.sampled_from(UNIVERSE + [OWN_ID]), max_size=8),
        rounds=st.integers(min_value=0, max_value=5),
    )
    def start(self, seeds, rounds):
        self.rounds = rounds
        self.lookup = Lookup(TARGET_HASH, OWN_ID, map(Peer, seeds), rounds)
        #: the reference's whole state: every node met (first record
        #: kept), who was asked, rounds left, did the last round learn
        self.met = {node_id: Peer(node_id) for node_id in seeds if node_id != OWN_ID}
        self.asked: list[bytes] = []
        self.rounds_left = rounds
        self.progressed = True
        self.answered: dict[bytes, Peer] = {}
        self.answers = 0

    @rule()
    def next_round(self):
        expected = []
        if self.rounds_left and self.progressed:
            self.rounds_left -= 1
            self.progressed = False
            unasked = [p for p in self.met.values() if p.node_id not in self.asked]
            expected = sorted(unasked, key=distance)[:ALPHA]
        assert self.lookup.next_round() == expected
        self.asked.extend(peer.node_id for peer in expected)

    @rule(
        known=st.lists(st.sampled_from(UNIVERSE), max_size=16),
        own=st.booleans(),
        minted=st.integers(min_value=0, max_value=16),
        repeat=st.booleans(),
    )
    def feed(self, known, own, minted, repeat):
        self.answers += 1
        ids = known + [OWN_ID] * own
        # the endless-fresh-IDs responder: nobody has seen these
        ids += [bytes([0xEE, self.answers, serial, 0]) * 16 for serial in range(minted)]
        if repeat:
            ids += ids
        records = [Peer(node_id, self.answers) for node_id in ids]
        fresh = []
        for record in records:
            if record.node_id == OWN_ID:
                continue
            self.answered[record.node_id] = record
            if record.node_id not in self.met:
                self.met[record.node_id] = record
                fresh.append(record)
        if fresh:
            self.progressed = True
        assert self.lookup.feed(records) == fresh

    @invariant()
    def results_are_every_answered_record_latest_first_position(self):
        assert list(self.lookup.results.items()) == list(self.answered.items())
        assert OWN_ID not in self.lookup.results

    @invariant()
    def no_node_is_asked_twice_and_the_total_is_capped(self):
        assert len(set(self.asked)) == len(self.asked) <= self.rounds * ALPHA
        assert OWN_ID not in self.asked

    @invariant()
    def closest_is_sorted_and_drawn_from_seeds_and_answers(self):
        everyone = sorted(self.met.values(), key=distance)
        for k in (0, 1, 16, len(everyone) + 1):
            assert self.lookup.closest(k) == everyone[:k]


LookupModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestLookupModel = LookupModel.TestCase
