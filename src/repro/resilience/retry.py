"""Deterministic retry/backoff policies for the live crawler.

The paper's NodeFinder ran for months against peers that reset
mid-handshake, stall inside STATUS, or drop off between discovery and
dial.  One attempt per enode per cycle wastes a crawl slot every time a
transient failure hits; unbounded retries hammer dead addresses forever.
:class:`RetryPolicy` is the middle ground: exponential backoff with
optional jitter, bounded by both an attempt count and a wall-clock
deadline.  Every source of nondeterminism is injectable — the RNG that
draws jitter, the clock that meters the deadline, the sleeper that
waits — so a schedule is exactly reproducible in tests and never leaks
wall-clock time into simulated runs.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with attempt and deadline budgets.

    The delay before attempt ``n + 1`` (1-based ``n`` attempts already
    made) is ``base_delay * multiplier ** (n - 1)`` capped at
    ``max_delay``, optionally spread by ``jitter``: a uniform draw over
    ``delay * (1 ± jitter)`` from an *injected* ``random.Random``, so two
    runs with the same seed back off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.2
    multiplier: float = 2.0
    max_delay: float = 30.0
    #: fractional spread of each delay; 0 disables jitter entirely
    jitter: float = 0.0
    #: total budget in seconds across all attempts and waits (None: none)
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff after ``attempt`` failed attempts (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and rng is not None:
            raw *= 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return raw

    async def run(
        self,
        attempt_fn: Callable[[int], Awaitable[T]],
        should_retry: Optional[Callable[[T], bool]] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
        rng: Optional[random.Random] = None,
        on_retry: Optional[Callable[[int, float], None]] = None,
    ) -> T:
        """Run ``attempt_fn(attempt_number)`` under this policy.

        Retries while ``should_retry(result)`` is true and budgets remain;
        the *last* result is always returned (never raises on exhaustion —
        failure stays encoded in the result, the crawler's convention).
        Exceptions from ``attempt_fn`` propagate: classification into
        results is the caller's job.  ``on_retry(attempt, delay)`` is an
        observability hook fired just before each backoff wait, with the
        1-based number of the attempt that failed and the wait length.
        """
        clock = clock if clock is not None else time.monotonic
        sleep = sleep if sleep is not None else asyncio.sleep
        started = clock()
        attempt = 0
        while True:
            attempt += 1
            result = await attempt_fn(attempt)
            if should_retry is None or not should_retry(result):
                return result
            if attempt >= self.max_attempts:
                return result
            delay = self.delay(attempt, rng)
            if (
                self.deadline is not None
                and clock() - started + delay > self.deadline
            ):
                return result
            if on_retry is not None:
                on_retry(attempt, delay)
            await sleep(delay)
