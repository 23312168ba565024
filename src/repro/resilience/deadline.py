"""Per-stage deadlines for the §4 harvest sequence.

NodeFinder's harvest is at most three message exchanges, but each one
waits on a different resource: the TCP connect, the RLPx auth/ack, the
DEVp2p HELLO, the eth STATUS, and the DAO-fork header answer.  A single
flat timeout lets one slow stage eat the whole budget (a peer that
accepts instantly but stalls inside STATUS holds a dial slot for the
full dial timeout) and makes the failure log useless — "timed out"
without saying *where*.  :class:`StageBudgets` gives every stage its own
budget and :func:`bounded` converts an overrun into a
:class:`StageTimeout` carrying the stage name, so
``DialResult.failure_stage`` can say exactly which exchange stalled.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, TypeVar

from repro.errors import ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class StageBudgets:
    """Seconds allowed per harvest stage (defaults suit a WAN crawl)."""

    connect: float = 5.0
    rlpx: float = 5.0
    hello: float = 5.0
    status: float = 5.0
    dao: float = 5.0

    @classmethod
    def flat(cls, timeout: float) -> "StageBudgets":
        """Every stage gets the same budget (the legacy flat dial timeout)."""
        return cls(
            connect=timeout, rlpx=timeout, hello=timeout, status=timeout, dao=timeout
        )


class StageTimeout(ReproError):
    """One harvest stage exceeded its budget; ``stage`` names it."""

    def __init__(self, stage: str, budget: float) -> None:
        super().__init__(f"stage {stage!r} exceeded its {budget:.3f}s budget")
        self.stage = stage
        self.budget = budget


async def bounded(coro: Awaitable[T], budget: float, stage: str) -> T:
    """Await ``coro`` under ``budget`` seconds; overruns raise StageTimeout."""
    try:
        return await asyncio.wait_for(coro, budget)
    except asyncio.TimeoutError:
        raise StageTimeout(stage, budget) from None
