"""A live NodeFinder: the full §4 crawler over real UDP/TCP.

``LiveNodeFinder`` wires the pieces together the way the paper's deployment
did — continuous discv4 lookups feed dynamic dials; every completed dial
joins the StaticNodes list and is re-dialed on a fixed interval; stale
addresses fall off after 24 hours; all results land in the same
:class:`~repro.nodefinder.database.NodeDB` the analyses consume.  Those
rules are :class:`~repro.nodefinder.core.CrawlerCore`'s, shared with the
simnet scanner; this module is the asyncio around them — the discv4
service, one dial queue drained by one dial loop under one
``max_active_dials`` semaphore, and the loop supervisors.

The crawler is supervised for month-long runs: each loop restarts under a
backoff policy if it crashes (crash/restart counts land in ``stats``), and
repeatedly-failing enodes are backed off behind a per-peer circuit
breaker — one scoreboard for the whole crawl, held by the core at
:class:`~repro.resilience.PeerScoreboard`'s defaults (3 failures,
300 s).  A dial is one attempt, as in the paper: a failed peer waits for
its next static or dynamic dial, so each ``_dial`` journals one ``dial``
record and a crawl's journal replays into exactly its own NodeDB.

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
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.discovery.protocol import DiscoveryService
from repro.nodefinder.core import CrawlerCore
from repro.nodefinder.database import NodeDB
from repro.nodefinder.shard import JournalRouter, NodeDBWriter, ShardPlan
from repro.nodefinder.wire import harvest
from repro.resilience import LoopSupervisor, PeerScoreboard, RetryPolicy
from repro.telemetry import EventJournal, Telemetry

logger = logging.getLogger(__name__)

#: dynamic-dial targets the dial loop drains from its queue per pass
DIAL_BATCH = 8


@dataclass
class LiveConfig:
    """Timers for a live crawl; defaults are the paper's, shrink for tests."""

    lookup_interval: float = 4.0
    static_dial_interval: float = 30 * 60.0
    max_active_dials: int = 16   # Geth's maxActiveDialTasks
    dial_timeout: float = 5.0
    #: restart budget for crashed crawler loops; None → package default
    supervisor_policy: Optional[RetryPolicy] = None


class LiveNodeFinder:
    """One live crawler instance."""

    def __init__(
        self,
        private_key: PrivateKey | None = None,
        config: LiveConfig | None = None,
        host: str = "127.0.0.1",
        clock: Callable[[], float] | None = None,
        rng: Optional[random.Random] = None,
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
        #: draws lookup targets; injectable for reproducible targets
        self.rng = rng
        self.db = NodeDB()
        self.discovery: Optional[DiscoveryService] = None
        self._supervisors: list[LoopSupervisor] = []
        self._tasks: list[asyncio.Task] = []
        self._stopping = False
        #: injectable dial function (harvest-compatible); benchmarks and
        #: tests swap in a stub to exercise the scheduler without sockets
        self._harvest = harvester if harvester is not None else harvest
        #: the crawl's journal: with a ``journal_opener`` every facade of
        #: this crawl — the one discovery and the harvests hold — writes
        #: through it into one file, which opens with the ``crawler`` record
        self.journals = JournalRouter(
            ShardPlan(1),
            journal_opener,
            self.clock,
            self.private_key.public_key.to_bytes(),
            "live",
        )
        self.telemetry = self.journals.facade(Telemetry())
        #: the crawler's counters, incremented where each thing happens
        self.stats: dict[str, int] = dict.fromkeys(
            (
                "lookups",
                "dynamic_dials",
                "static_dials",
                "dial_failures",
                "breaker_skips",
                "loop_crashes",
                "loop_restarts",
                "loop_deaths",
            ),
            0,
        )
        #: every NodeDB/CrawlStats mutation goes through this single writer
        #: (OWNERSHIP pins the rule)
        self.writer = NodeDBWriter(self.db, telemetry=self.telemetry)
        #: dynamic-dial targets the discovery loop hands the dial loop
        self._queue: asyncio.Queue = asyncio.Queue()
        #: the crawl's dial slots
        self._semaphore = asyncio.Semaphore(self.config.max_active_dials)
        #: the §4 policy: StaticNodes, dial history (one re-dial interval
        #: long), the crawl's one breaker gate — all on the injected clock
        self.core: CrawlerCore[ENode] = CrawlerCore(
            self.config.static_dial_interval,
            self.config.static_dial_interval,
            PeerScoreboard(clock=self.clock, on_transition=self.telemetry.record_breaker),
        )

    @property
    def static_nodes(self) -> dict[bytes, float]:
        """The StaticNodes schedule: node id -> next static dial time."""
        return self.core.statics

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
        self._spawn_loop("dial", self._dial_loop)
        return self

    def _spawn_loop(self, name: str, loop: Callable) -> None:
        supervisor = LoopSupervisor(
            name,
            loop,
            policy=self.config.supervisor_policy,
            on_crash=lambda exc, name=name: self._loop_crashed(name, exc),
            on_restart=lambda name=name: self._loop_restarted(name),
        )
        self._supervisors.append(supervisor)
        task = asyncio.ensure_future(supervisor.run())
        task.add_done_callback(
            lambda task, name=name: self._task_died(name, task)
        )
        self._tasks.append(task)

    def _loop_crashed(self, name: str, exc: BaseException) -> None:
        self.stats["loop_crashes"] += 1
        self.telemetry.record_loop_crash(name, repr(exc))

    def _loop_restarted(self, name: str) -> None:
        self.stats["loop_restarts"] += 1
        self.telemetry.record_loop_restart(name)

    def _task_died(self, name: str, task: asyncio.Task) -> None:
        """A supervised loop ended for good — count it if it crashed.

        Fires when the supervisor's restart budget is spent (or it raised
        outside its own loop); a cancelled task is a normal shutdown.
        """
        if task.cancelled() or task.exception() is None:
            return
        self.stats["loop_deaths"] += 1
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
        # the journal closes after the last emitter
        self.journals.close()

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
            self.stats["lookups"] += 1
            taken, _ = self.core.select(
                found, self.discovery.node_id, self.clock()
            )
            # the dial loop batches the draws
            for node in taken:
                self._queue.put_nowait(node)
            # §4's 24 h rule, crawl-wide, once per lookup round
            self.core.prune(self.clock())
            await asyncio.sleep(self.config.lookup_interval)

    async def _dial_loop(self) -> None:
        """The crawl's dial loop: due statics plus a batched queue draw."""
        poll = min(1.0, self.config.static_dial_interval / 10)
        queue = self._queue
        while not self._stopping:
            jobs: list[tuple[ENode, str]] = [
                (enode, "static-dial") for enode in self.core.due_statics(self.clock())
            ]
            try:
                drawn = 0
                if not jobs:
                    # idle: block up to one poll interval for the first
                    # queued target (this is also the loop's pacing sleep)
                    node = await asyncio.wait_for(queue.get(), timeout=poll)
                    jobs.append((node, "dynamic-dial"))
                    drawn = 1
                # with work in hand, only drain what is already queued,
                # up to the batch size — never park on an empty queue
                while drawn < DIAL_BATCH:
                    jobs.append((queue.get_nowait(), "dynamic-dial"))
                    drawn += 1
            except (asyncio.TimeoutError, asyncio.QueueEmpty):
                pass
            if jobs:
                # exception-safe fan-out: one crashing dial must not cancel
                # its siblings or kill the loop
                outcomes = await asyncio.gather(
                    *(self._dial(enode, kind) for enode, kind in jobs),
                    return_exceptions=True,
                )
                for (enode, kind), outcome in zip(jobs, outcomes):
                    if isinstance(outcome, asyncio.CancelledError):
                        raise outcome
                    if isinstance(outcome, BaseException):
                        self.stats["dial_failures"] += 1
                        logger.warning(
                            "%s of %s crashed: %r", kind, enode.short_id(), outcome
                        )

    # -- dialing ---------------------------------------------------------------

    async def _dial(self, target: ENode, connection_type: str) -> None:
        if not self.core.admit(target):
            self.stats["breaker_skips"] += 1
            return
        async with self._semaphore:
            result = await self._harvest(
                target,
                self.private_key,
                connection_type=connection_type,
                dial_timeout=self.config.dial_timeout,
                clock=self.clock,
                telemetry=self.telemetry,
            )
        self.stats[
            "dynamic_dials" if connection_type == "dynamic-dial" else "static_dials"
        ] += 1
        # a fold that raises surfaces in the loop's gather as a crashed dial
        self.writer.submit(result)
        self.core.dial_done(target, result, self.clock())

    async def crawl_for(self, seconds: float) -> NodeDB:
        """Convenience: run the loops for a wall-clock duration."""
        await asyncio.sleep(seconds)
        return self.db
