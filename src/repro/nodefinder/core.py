"""The NodeFinder policy of §4, defined once and free of IO.

:class:`CrawlerCore` holds what the policy remembers — the StaticNodes
schedule, the dial history, the address book StaticNodes resolves
against, each shard's breaker scoreboard — and answers the seven
decisions a crawl keeps asking:

* which lookup results become dynamic dials (:meth:`~CrawlerCore.select`);
* which statics are due, already rescheduled (:meth:`~CrawlerCore.due_statics`);
* may this peer be dialed now (:meth:`~CrawlerCore.admit`);
* what a finished dial means — breaker score and *the* join-StaticNodes
  rule (:meth:`~CrawlerCore.dial_done`);
* who else is static: bootstrap and inbound peers (:meth:`~CrawlerCore.add_static`);
* who falls off after 24 h (:meth:`~CrawlerCore.prune`);
* whose breakers gate the ranges a split or merge made (:meth:`~CrawlerCore.replan`).

It reads no clock, socket, event loop, journal or RNG: ``now`` arrives as
a number and plain data comes back.  The drivers own every side effect —
:class:`~repro.nodefinder.scanner.NodeFinderInstance` calls the core from
simulated-clock ticks, :class:`~repro.nodefinder.live.LiveNodeFinder` from
asyncio loops — so the two cannot drift apart on policy, and a test can
script the policy without either (``tests/test_crawler_core.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generic, Iterable, Optional, Protocol, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nodefinder.records import DialOutcome
    from repro.nodefinder.reshard import DynamicShardPlan
    from repro.resilience.breaker import PeerScoreboard


class DialTarget(Protocol):
    """What the core reads of a target (``NodeAddress`` in the simnet,
    ``ENode`` live)."""

    @property
    def node_id(self) -> bytes: ...

    @property
    def ip(self) -> str: ...


T = TypeVar("T", bound=DialTarget)


class CrawlerCore(Generic[T]):
    """One crawl's §4 state and decisions; see the module docstring.

    ``shard`` arguments are positional indices into ``plan.ranges``;
    ``breakers`` is positional too (``None`` = that shard dials ungated —
    the simnet passes its one optional crawl-wide scoreboard for every
    shard, a live crawl one scoreboard per shard).
    """

    def __init__(
        self,
        plan: "DynamicShardPlan",
        static_dial_interval: float,
        history_window: float,
        breakers: Sequence[Optional["PeerScoreboard"]],
    ) -> None:
        self.plan = plan
        self.static_dial_interval = static_dial_interval
        self.history_window = history_window
        #: StaticNodes: node id -> next re-dial time, in the order the nodes
        #: joined; which shard dials one is ``plan.shard_of``, looked up
        #: when asked, so no plan change moves anything here
        self.statics: dict[bytes, float] = {}
        self.breakers = list(breakers)
        #: node id -> where to dial it; discovery and completed dials fill it
        self.addresses: dict[bytes, T] = {}
        #: node id -> when a lookup result was last taken for a dynamic dial
        self.dial_history: dict[bytes, float] = {}

    def select(
        self, found: Iterable[T], own_id: bytes, now: float, budget: Optional[int] = None
    ) -> tuple[list[tuple[int, T]], int]:
        """Lookup results -> the dynamic dials to make, as ``(shard,
        target)`` in lookup order, plus how many the budget shed.

        A result is dialed unless it is ourselves, already on StaticNodes,
        or was taken inside the history window — Geth keeps dialing what
        discovery returns, including nodes that never answered.  Overflow
        beyond ``budget`` is shed *before* it enters the history, so a
        target dropped this round is dialable next round, not blocked for
        a window.  The order is the lookup's, not the plan's: a subnet
        breaker trips on the K-th failure in dial order, so a driver that
        dials this list front to back behaves the same under any plan.
        """
        horizon = now - self.history_window
        shard_of, statics, history = self.plan.shard_of, self.statics, self.dial_history
        taken: list[tuple[int, T]] = []
        shed = 0
        for target in found:
            node_id = target.node_id
            if node_id == own_id:
                continue
            if node_id in statics:
                continue
            last = history.get(node_id)
            if last is not None and last > horizon:
                continue
            if len(taken) == budget:
                shed += 1
                continue
            history[node_id] = now
            taken.append((shard_of(node_id), target))
        return taken, shed

    def due_statics(self, now: float, shard: Optional[int] = None) -> list[tuple[int, T]]:
        """``(shard, target)`` for every static whose time has come, in
        the order they joined StaticNodes (one shard's only when ``shard``
        is given) — like :meth:`select`'s, an order the plan does not
        enter, so dialing it front to back trips the same breakers under
        any shard count.  Each is rescheduled one interval out *before* it
        is returned — the caller's dial cannot be raced into a second
        dial — and an entry with no known address is dropped instead.
        """
        statics, shard_of = self.statics, self.plan.shard_of
        due: list[tuple[int, T]] = []
        for node_id in [n for n, next_dial in statics.items() if next_dial <= now]:
            index = shard_of(node_id)
            if shard is not None and index != shard:
                continue
            target = self.addresses.get(node_id)
            if target is None:
                del statics[node_id]
                continue
            statics[node_id] = now + self.static_dial_interval
            due.append((index, target))
        return due

    def admit(self, shard: int, target: T) -> bool:
        """Breaker gate: may ``target`` be dialed right now?  An admitted
        dial must report back through :meth:`dial_done` (a half-open
        breaker admits exactly one probe)."""
        board = self.breakers[shard]
        return board is None or board.allow(target.node_id, target.ip)

    def dial_done(self, shard: int, target: T, outcome: "DialOutcome", now: float) -> None:
        """Score one finished outbound dial and apply §4's join rule: a
        *completed* dial (the peer spoke DEVp2p) joins StaticNodes one
        interval out unless it is already there; a refused, reset or
        timed-out one counts against the peer's breaker and joins nothing.
        """
        board = self.breakers[shard]
        if not outcome.completed:
            if board is not None:
                board.record_failure(target.node_id, target.ip)
            return
        if board is not None:
            board.record_success(target.node_id, target.ip)
        self.addresses[target.node_id] = target
        self.add_static(target.node_id, now + self.static_dial_interval)

    def add_static(self, node_id: bytes, next_dial: float) -> bool:
        """Put a bootstrap or inbound peer on StaticNodes unless it is
        there already; True when added.  Its address is the caller's to
        learn (the simnet's table admission may refuse it)."""
        if node_id in self.statics:
            return False
        self.statics[node_id] = next_dial
        return True

    def prune(self, stale_ids: Iterable[bytes]) -> None:
        """Drop stale addresses from StaticNodes (§4's 24 h rule); a
        dropped peer's breaker is forgotten with it."""
        for node_id in stale_ids:
            if self.statics.pop(node_id, None) is not None:
                board = self.breakers[self.plan.shard_of(node_id)]
                if board is not None:
                    board.forget(node_id)

    def replan(
        self, index: int, count: int, breakers: Sequence[Optional["PeerScoreboard"]]
    ) -> None:
        """The plan just replaced the ``count`` ranges at ``index`` with
        ``len(breakers)`` children: attach the children's scoreboards.
        StaticNodes needs nothing — it is not laid out by the plan."""
        self.breakers[index : index + count] = breakers
