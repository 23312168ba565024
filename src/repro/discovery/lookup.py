"""The iterative Kademlia lookup (paper §2.1), without the asking.

:class:`Lookup` is the algorithm and nothing else — no socket, clock, RNG
or event loop.  A driver seeds it from its routing table and then
alternates :meth:`~Lookup.next_round` (whom to send FIND_NODE to) with
:meth:`~Lookup.feed` (what one of them answered) until a round comes back
empty.  The simnet scanner answers from ``world.find_node_query``, the
discv4 service from ``gather(find_node)``, the §6.3 experiment from an
in-memory neighbour map; all three walk the same frontier under the same
stop rule.
"""

from __future__ import annotations

import heapq
from typing import Generic, Iterable, Optional, Protocol, TypeVar

from repro.discovery.enode import cached_id_hash_int

#: Kademlia concurrency factor: nodes queried per round (§2.1: "typically
#: three").
ALPHA = 3

#: query rounds per lookup.  Together with ``ALPHA`` this bounds what one
#: lookup can be made to send, whatever the answers say: a responder that
#: keeps minting closer IDs (the false-friend lever) buys
#: ``LOOKUP_ROUNDS * ALPHA`` FIND_NODEs and no more.
LOOKUP_ROUNDS = 3


class HasNodeId(Protocol):
    @property
    def node_id(self) -> bytes: ...


N = TypeVar("N", bound=HasNodeId)


class Lookup(Generic[N]):
    """One lookup toward the target whose keccak-256 is ``target_hash``.

    ``own_id`` is the asking node's ID (None when the asker is not part
    of the network): records carrying it are dropped.  ``rounds`` is an
    argument only because the crawlers run :data:`LOOKUP_ROUNDS` and the
    §6.3 experiment twice that.
    """

    def __init__(
        self,
        target_hash: bytes,
        own_id: Optional[bytes],
        seeds: Iterable[N],
        rounds: int = LOOKUP_ROUNDS,
    ) -> None:
        self._target = int.from_bytes(target_hash, "big")
        self._own_id = own_id
        self._rounds_left = rounds
        #: whether the last round learned a node (true before the first)
        self._progressed = True
        #: every node met, seeds first: what is never pushed twice
        self._known: dict[bytes, N] = {}
        #: nodes met and not yet queried, as a heap keyed once, on
        #: insertion, by XOR distance to the target — a round pops its
        #: ALPHA closest instead of re-deriving every known node's
        #: distance (distinct IDs never tie, so the order is the one a
        #: full sort would give)
        self._frontier: list[tuple[int, N]] = []
        #: every record an answer carried, by node ID (a later record for
        #: the same ID replaces the earlier): the crawler's product
        self.results: dict[bytes, N] = {}
        for node in seeds:
            if node.node_id != own_id and node.node_id not in self._known:
                self._known[node.node_id] = node
                self._frontier.append(
                    (cached_id_hash_int(node.node_id) ^ self._target, node)
                )
        heapq.heapify(self._frontier)

    def next_round(self) -> list[N]:
        """The ≤ ``ALPHA`` closest unqueried nodes, each handed out once.

        Empty — the lookup is over — when the rounds are spent, nothing
        is left to ask, or the previous round's answers held no node that
        was new.
        """
        if not (self._rounds_left and self._progressed):
            return []
        self._rounds_left -= 1
        self._progressed = False
        frontier = self._frontier
        return [
            heapq.heappop(frontier)[1] for _ in range(min(ALPHA, len(frontier)))
        ]

    def feed(self, records: Iterable[N]) -> list[N]:
        """Take one queried node's answer; returns the records not met
        before, in answer order, for the driver's table and address book."""
        own_id, known, results = self._own_id, self._known, self.results
        target, frontier = self._target, self._frontier
        fresh = []
        for record in records:
            node_id = record.node_id
            if node_id == own_id:
                continue
            results[node_id] = record
            if node_id not in known:
                known[node_id] = record
                heapq.heappush(
                    frontier, (cached_id_hash_int(node_id) ^ target, record)
                )
                fresh.append(record)
        if fresh:
            self._progressed = True
        return fresh

    def closest(self, k: int) -> list[N]:
        """The ``k`` nodes closest to the target among seeds and answers."""
        target = self._target
        return sorted(
            self._known.values(),
            key=lambda node: cached_id_hash_int(node.node_id) ^ target,
        )[:k]
