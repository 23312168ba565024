"""A live NodeFinder: the full §4 crawler over real UDP/TCP.

``LiveNodeFinder`` wires the pieces together the way the paper's deployment
did — continuous discv4 lookups feed dynamic dials; every completed dial
joins the StaticNodes list and is re-dialed on a fixed interval; stale
addresses fall off after 24 hours; all results land in the same
:class:`~repro.nodefinder.database.NodeDB` the analyses consume.  Those
rules are :class:`~repro.nodefinder.core.CrawlerCore`'s, shared with the
simnet scanner; this module is the asyncio around them — the discv4
service, per-shard queues and dial loops, semaphores, supervisors and
the drain/spawn half of a reshard.

The crawler is supervised for month-long runs: each loop restarts under a
backoff policy if it crashes (crash/restart counts land in ``stats``),
repeatedly-failing enodes are backed off behind a per-peer circuit
breaker, and transient dial failures can be retried in place under a
deterministic :class:`~repro.resilience.RetryPolicy`.

Intervals are parameters (the paper's values are 4s lookups and 30-minute
re-dials); tests and examples shrink them to seconds so a localhost crawl
exercises every loop in a few wall-clock seconds.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.discovery.protocol import DiscoveryService
from repro.nodefinder.core import CrawlerCore
from repro.nodefinder.database import NodeDB
from repro.nodefinder.reshard import (
    DynamicShardPlan,
    ReshardController,
    ReshardCoordinator,
    ReshardPolicy,
)
from repro.nodefinder.shard import NodeDBWriter, ShardState
from repro.nodefinder.wire import harvest
from repro.resilience import LoopSupervisor, PeerScoreboard, RetryPolicy
from repro.telemetry import EventJournal, Telemetry

logger = logging.getLogger(__name__)


@dataclass
class LiveConfig:
    """Timers for a live crawl; defaults are the paper's, shrink for tests."""

    lookup_interval: float = 4.0
    static_dial_interval: float = 30 * 60.0
    max_active_dials: int = 16   # Geth's maxActiveDialTasks
    dial_timeout: float = 5.0
    #: in-place retry for transport-level dial failures; None disables
    retry: Optional[RetryPolicy] = field(
        default_factory=lambda: RetryPolicy(max_attempts=2, base_delay=0.2)
    )
    #: consecutive transport failures before an enode's breaker opens
    breaker_threshold: int = 3
    #: seconds an open breaker skips dials before admitting a probe
    breaker_cooldown: float = 300.0
    #: restart budget for crashed crawler loops; None → package default
    supervisor_policy: Optional[RetryPolicy] = None
    #: worker shards partitioning the enode keyspace by node-ID prefix:
    #: one dial loop per shard, all folding through one NodeDBWriter
    shards: int = 1
    #: dynamic-dial targets a shard loop drains from its queue per pass
    shard_batch: int = 8
    #: elastic sharding: when set, a supervised reshard loop polls the
    #: shard-health gauges and may split hot shards / merge cold siblings
    #: mid-crawl with a drain-seal-handoff protocol (see
    #: :mod:`repro.nodefinder.reshard`); None leaves the plan as it starts
    reshard: Optional[ReshardPolicy] = None


class LiveNodeFinder:
    """One live crawler instance."""

    def __init__(
        self,
        private_key: PrivateKey | None = None,
        config: LiveConfig | None = None,
        host: str = "127.0.0.1",
        clock: Callable[[], float] | None = None,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
        harvester: Optional[Callable] = None,
        journal_opener: Optional[Callable[[str], EventJournal]] = None,
    ) -> None:
        self.private_key = private_key or PrivateKey.generate()
        self.config = config or LiveConfig()
        self.host = host
        #: one injectable clock drives redial scheduling, record timestamps,
        #: stale-address pruning, and breaker cooldowns, so tests can advance
        #: time without sleeping; monotonic by default (wall-clock jumps must
        #: not expire or re-schedule dials)
        self.clock = clock if clock is not None else time.monotonic
        #: draws lookup targets and retry jitter; injectable for
        #: reproducible targets and backoff schedules
        self.rng = rng
        self.db = NodeDB()
        self.discovery: Optional[DiscoveryService] = None
        self._supervisors: list[LoopSupervisor] = []
        self._tasks: list[asyncio.Task] = []
        self._stopping = False
        #: injectable dial function (harvest-compatible); benchmarks and
        #: tests swap in a stub to exercise the scheduler without sockets
        self._harvest = harvester if harvester is not None else harvest
        # -- sharding -------------------------------------------------------
        self.plan = DynamicShardPlan(max(1, int(self.config.shards)))
        policy = self.config.reshard
        self.controller: Optional[ReshardController] = (
            ReshardController(policy, self.plan) if policy is not None else None
        )
        #: the crawl's journal: with a ``journal_opener`` every facade of
        #: this crawl — the shards', the one discovery and the harvests
        #: hold — writes through it and it places each record in a
        #: segment file, which opens with the ``crawler`` record
        self.coordinator = ReshardCoordinator(
            self.plan,
            journal_opener,
            self.clock,
            self.private_key.public_key.to_bytes(),
            "live",
        )
        #: the crawler is a measurement instrument, so it always carries a
        #: *real* registry (``stats`` reads off it); pass your own Telemetry
        #: to share a registry across components
        self.telemetry = self.coordinator.facade(
            telemetry if telemetry is not None else Telemetry()
        )
        #: every NodeDB/CrawlStats mutation goes through this single writer
        #: (OWNERSHIP pins the rule)
        self.writer = NodeDBWriter(self.db, telemetry=self.telemetry)
        #: one dial worker per live range, positional like ``plan.ranges``
        #: and labeled by stable segment id (the controller may split even
        #: a single shard)
        self._shards: list[ShardState] = [
            self._make_shard_state(index, shard_range.segment)
            for index, shard_range in enumerate(self.plan.ranges)
        ]
        #: the §4 policy: StaticNodes, dial history (one re-dial interval
        #: long), each shard's breaker gate — all on the injected clock
        self.core: CrawlerCore[ENode] = CrawlerCore(
            self.plan,
            self.config.static_dial_interval,
            self.config.static_dial_interval,
            [shard.breakers for shard in self._shards],
        )

    @property
    def shard_count(self) -> int:
        return self.plan.shards

    def _make_shard_state(self, index: int, segment: str) -> ShardState:
        """Build one shard: its segment's metric label, fresh breakers."""
        shard_telemetry = self.telemetry.for_shard(segment)
        shard_breakers = PeerScoreboard(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=self.clock,
            on_transition=shard_telemetry.record_breaker,
        )
        return ShardState(
            index,
            shard_telemetry,
            shard_breakers,
            self.config.max_active_dials,
            segment,
        )

    @property
    def static_nodes(self) -> dict[bytes, float]:
        """The StaticNodes schedule: node id -> next static dial time."""
        return self.core.statics

    @property
    def stats(self) -> dict[str, int]:
        """The crawler's counters, read live off the telemetry registry."""
        telemetry = self.telemetry
        return {
            "lookups": int(telemetry.lookups.value),
            # shard workers emit under their own ``shard`` label; total()
            # folds every worker's series into the crawl-wide count
            "dynamic_dials": int(
                telemetry.scheduled_dials.total(type="dynamic-dial")
            ),
            "static_dials": int(
                telemetry.scheduled_dials.total(type="static-dial")
            ),
            "dial_failures": int(telemetry.dial_failures.total()),
            "breaker_skips": int(telemetry.breaker_skips.total()),
            "loop_crashes": int(telemetry.loop_crashes.value),
            "loop_restarts": int(telemetry.loop_restarts.value),
            "loop_deaths": int(telemetry.loop_deaths.value),
        }

    async def start(self, bootstrap: list[ENode]) -> "LiveNodeFinder":
        self.discovery = DiscoveryService(
            self.private_key,
            host=self.host,
            bootstrap_nodes=list(bootstrap),
            telemetry=self.telemetry,
        )
        await self.discovery.listen()
        for node in bootstrap:
            await self.discovery.bond(node)
            # bootstrap nodes are static-dialed like any other node (§4): a
            # lookup's product is what answers carry, and on a small network
            # no answer carries the node every query goes to
            self.core.addresses[node.node_id] = node
            self.core.add_static(node.node_id, self.clock())
        self._spawn_loop("discovery", self._discovery_loop)
        if self.controller is not None:
            self._spawn_loop("reshard", self._reshard_loop)
        for shard in self._shards:
            self._spawn_shard_loop(shard)
        self.plan.publish(self.telemetry)
        return self

    def _spawn_loop(self, name: str, loop: Callable) -> asyncio.Task:
        supervisor = LoopSupervisor(
            name,
            loop,
            policy=self.config.supervisor_policy,
            rng=self.rng,
            on_crash=lambda exc, name=name: self.telemetry.record_loop_crash(
                name, repr(exc)
            ),
            on_restart=lambda name=name: self.telemetry.record_loop_restart(
                name
            ),
        )
        self._supervisors.append(supervisor)
        task = asyncio.ensure_future(supervisor.run())
        task.add_done_callback(
            lambda task, name=name: self._task_died(name, task)
        )
        self._tasks.append(task)
        return task

    def _spawn_shard_loop(self, shard: ShardState) -> None:
        shard.task = self._spawn_loop(
            f"shard-{shard.segment}", lambda shard=shard: self._shard_loop(shard)
        )

    def _task_died(self, name: str, task: asyncio.Task) -> None:
        """A supervised loop ended for good — count it if it crashed.

        Fires when the supervisor's restart budget is spent (or it raised
        outside its own loop); a cancelled task is a normal shutdown.
        """
        if task.cancelled() or task.exception() is None:
            return
        self.telemetry.record_loop_death(name, repr(task.exception()))
        logger.warning(
            "crawler %s loop died with %r", name, task.exception()
        )

    async def stop(self) -> None:
        self._stopping = True
        pending: set[asyncio.Task] = set(self._tasks)
        while pending:
            # re-cancel until every loop actually finishes: a cancellation
            # delivered while a dial sits inside asyncio.wait_for can be
            # absorbed by the wait_for timeout/completion race (fixed
            # upstream in 3.12), leaving the loop alive after one cancel
            for task in pending:
                task.cancel()
            _, pending = await asyncio.wait(pending, timeout=1.0)
        # no except clause here: asyncio.wait never raises, and a crashed
        # (non-cancelled) loop is surfaced by the done-callback instead of
        # silently dropped; give those callbacks a tick to run
        await asyncio.sleep(0)
        if self.discovery is not None:
            self.discovery.close()
        # segments sealed mid-crawl are already closed; the still-live
        # generation's journals close here, after the last emitter
        self.coordinator.close()

    # -- loops -------------------------------------------------------------

    async def _discovery_loop(self) -> None:
        assert self.discovery is not None
        while not self._stopping:
            # 64 random bytes, as the sim driver draws its targets — a
            # lookup target need not be a valid public key
            target = (
                self.rng.randbytes(64) if self.rng is not None else os.urandom(64)
            )
            found = await self.discovery.lookup_all(target)
            self.telemetry.lookups.inc()
            taken, _ = self.core.select(
                found, self.discovery.node_id, self.clock()
            )
            # each target goes to the shard owning its keyspace slice; the
            # shard loop batches the draws
            for index, node in taken:
                shard = self._shards[index]
                shard.queue.put_nowait(node)
                shard.telemetry.record_shard_health(queue_depth=shard.queue.qsize())
            # §4's 24 h rule, crawl-wide, once per lookup round
            self.core.prune(self.clock())
            await asyncio.sleep(self.config.lookup_interval)

    async def _shard_loop(self, shard: ShardState) -> None:
        """One shard's dial loop: due statics plus a batched queue draw.

        The shard touches only its own :class:`ShardState` and the shared
        :class:`NodeDBWriter` — no cross-shard state, no locks.
        """
        poll = min(1.0, self.config.static_dial_interval / 10)
        # a reshard handoff retires the loop: it finishes the pass in
        # flight (draining its dials) and returns cleanly, which the
        # supervisor treats as a normal exit
        while not (self._stopping or shard.retired):
            now = self.clock()
            jobs: list[tuple[ENode, str]] = [
                (enode, "static-dial")
                for _, enode in self.core.due_statics(now, shard.index)
            ]
            try:
                drawn = 0
                if not jobs:
                    # idle: block up to one poll interval for the first
                    # queued target (this is also the loop's pacing sleep)
                    node = await asyncio.wait_for(
                        shard.queue.get(), timeout=poll
                    )
                    jobs.append((node, "dynamic-dial"))
                    drawn = 1
                # with work in hand, only drain what is already queued,
                # up to the batch size — never park on an empty queue
                while drawn < self.config.shard_batch:
                    jobs.append((shard.queue.get_nowait(), "dynamic-dial"))
                    drawn += 1
            except (asyncio.TimeoutError, asyncio.QueueEmpty):
                pass
            shard.telemetry.record_shard_health(queue_depth=shard.queue.qsize())
            if jobs:
                # exception-safe fan-out: one crashing dial must not cancel
                # its siblings or kill the loop
                outcomes = await asyncio.gather(
                    *(
                        self._shard_dial(shard, enode, kind)
                        for enode, kind in jobs
                    ),
                    return_exceptions=True,
                )
                for (enode, kind), outcome in zip(jobs, outcomes):
                    if isinstance(outcome, asyncio.CancelledError):
                        raise outcome
                    if isinstance(outcome, BaseException):
                        shard.telemetry.record_dial_crash(repr(outcome))
                        logger.warning(
                            "shard %d %s of %s crashed: %r",
                            shard.index,
                            kind,
                            enode.short_id(),
                            outcome,
                        )
            self._refresh_health(shard, now)

    def _refresh_health(self, shard: ShardState, pass_started: float) -> None:
        """One loop pass done: publish how this worker is keeping up.

        Lag is the pass's wall duration — how far the loop trails the
        clock it schedules against; a healthy worker stays near its poll
        interval, a drowning one grows with its dial backlog.
        """
        shard.telemetry.record_shard_health(
            queue_depth=shard.queue.qsize(),
            lag=self.clock() - pass_started,
            open_breakers=shard.breakers.open_count,
            journal_backlog=self.coordinator.backlog(shard.index),
        )

    # -- elastic resharding ------------------------------------------------

    async def _reshard_loop(self) -> None:
        """Poll the shard-health gauges and apply split/merge decisions.

        Supervised like every other crawler loop; the controller applies
        hysteresis and cooldown, so a healthy crawl makes this a cheap
        periodic no-op.
        """
        assert self.controller is not None
        interval = self.controller.policy.interval
        while not self._stopping:
            await asyncio.sleep(interval)
            if self._stopping:
                return
            loads = [float(shard.queue.qsize()) for shard in self._shards]
            ops = self.controller.observe(loads, now=self.clock())
            for action, index in ops:
                await self._apply_reshard(action, index)
            if ops:
                self.plan.publish(self.telemetry)

    async def _apply_reshard(self, action: str, index: int) -> None:
        """One live handoff: drain the parent loops, seal, split/merge.

        Protocol order matters:

        1. flag the parent shard(s) ``retired`` and await their loop
           tasks — the loops finish the pass in flight (every dial
           folded) and return cleanly;
        2. with the parents quiescent, the coordinator mutates the plan,
           seals their journal segments with the ``reshard`` record and
           opens the children's (no awaits from here to step 4, so no
           loop observes a half-built plan);
        3. hand off: queued targets transfer to the child owning their
           prefix (StaticNodes is one dict the plan is not in — nothing
           to move); children get fresh breaker scoreboards (failure
           history does not survive a handoff — a deliberate reset, the
           cooldowns re-learn quickly);
        4. splice the children into the shard list, renumber positional
           indices, and spawn their supervised loops.
        """
        assert self.controller is not None
        count = 1 if action == "split" else 2
        drains = []
        for shard in self._shards[index : index + count]:
            shard.retired = True
            if shard.task is not None:
                drains.append(shard.task)
        if drains:
            await asyncio.gather(*drains, return_exceptions=True)
        if self._stopping:
            return
        # ---- synchronous from here until the new loops spawn ----
        parents = self._shards[index : index + count]
        handed = self.coordinator.handoff(
            action,
            index,
            step=self.controller.step - 1,  # the observation that decided this
        )
        children = [
            self._make_shard_state(index + offset, child.segment)
            for offset, child in enumerate(handed)
        ]
        self._shards[index : index + count] = children
        for position, shard in enumerate(self._shards):
            shard.index = position
        self.core.replan(index, count, [child.breakers for child in children])
        for parent in parents:
            while True:
                try:
                    node = parent.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._shards[self.plan.shard_of(node.node_id)].queue.put_nowait(node)
        for shard in children:
            self._spawn_shard_loop(shard)

    # -- dialing ---------------------------------------------------------------

    async def _shard_dial(
        self, shard: ShardState, target: ENode, connection_type: str
    ) -> None:
        if not self.core.admit(shard.index, target):
            shard.telemetry.record_breaker_skip()
            return
        async with shard.semaphore:
            result = await self._harvest(
                target,
                self.private_key,
                connection_type=connection_type,
                dial_timeout=self.config.dial_timeout,
                clock=self.clock,
                retry=self.config.retry,
                retry_rng=self.rng,
                telemetry=shard.telemetry,
            )
        shard.telemetry.record_scheduled_dial(connection_type)
        # the only shared-state touch on the shard hot path; a fold that
        # raises surfaces in the loop's gather as a crashed dial
        self.writer.submit(result)
        # positional index re-read after the awaits: a reshard of other
        # ranges may have renumbered this shard, and the core with it
        self.core.dial_done(shard.index, target, result, self.clock())

    async def crawl_for(self, seconds: float) -> NodeDB:
        """Convenience: run the loops for a wall-clock duration."""
        await asyncio.sleep(seconds)
        return self.db
