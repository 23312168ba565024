"""Per-stage deadlines for the §4 harvest sequence.

NodeFinder's harvest is at most three message exchanges, but each one
waits on a different resource: the TCP connect, the RLPx auth/ack, the
DEVp2p HELLO, the eth STATUS, and the DAO-fork header answer.  One
timeout around the whole dial makes the failure log useless — "timed
out" without saying *where*.  :func:`bounded` runs one stage under the
dial timeout and converts an overrun into a :class:`StageTimeout`
carrying the stage name, so ``DialResult.failure_stage`` can say exactly
which exchange stalled.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, TypeVar

from repro.errors import ReproError

T = TypeVar("T")


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
