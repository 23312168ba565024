"""Loop supervision: restart a crashed crawler loop instead of dying silently.

``asyncio.ensure_future(loop())`` without supervision has a failure mode
the paper's months-long deployment cannot afford: one unexpected
exception ends the task, nothing awaits it until shutdown, and the
crawler keeps "running" with its discovery or static-dial loop quietly
dead.  :class:`LoopSupervisor` wraps the loop coroutine, restarts it
after a crash on a :class:`RetryPolicy` backoff schedule, counts
crashes/restarts for the owner's ``stats``, and gives up (re-raising the
last error) only when the restart budget is exhausted.  Cancellation
always propagates — ``stop()`` still stops everything.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Awaitable, Callable, Optional

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryPolicy:
    """A loop's restart budget: ``max_attempts`` runs, with an exponential
    wait between them.

    The wait after ``n`` crashed runs (1-based) is
    ``base_delay * multiplier ** (n - 1)`` capped at ``max_delay``.
    """

    max_attempts: int = 3
    base_delay: float = 0.2
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff after ``attempt`` crashed runs (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))


#: restart budget used when the owner does not supply one: up to five
#: restarts, 0.5s doubling to 30s between them
DEFAULT_SUPERVISOR_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.5, multiplier=2.0, max_delay=30.0
)


class LoopSupervisor:
    """Run one long-lived loop coroutine, restarting it on crashes."""

    def __init__(
        self,
        name: str,
        factory: Callable[[], Awaitable[None]],
        policy: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], Awaitable[None]]] = None,
        on_crash: Optional[Callable[[BaseException], None]] = None,
        on_restart: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        self.factory = factory
        self.policy = policy if policy is not None else DEFAULT_SUPERVISOR_POLICY
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._on_crash = on_crash
        self._on_restart = on_restart
        self.crashes = 0
        self.restarts = 0
        self.last_error: Optional[BaseException] = None

    async def run(self) -> None:
        """Run the loop until it returns cleanly, is cancelled, or the
        restart budget is spent (then the last crash re-raises so the
        owner's shutdown path surfaces it)."""
        runs = 0
        while True:
            runs += 1
            try:
                await self.factory()
                return  # clean exit: the loop saw its stop flag
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self.crashes += 1
                self.last_error = exc
                if self._on_crash is not None:
                    self._on_crash(exc)
                logger.warning(
                    "loop %s crashed (%d): %r", self.name, self.crashes, exc
                )
                if runs >= self.policy.max_attempts:
                    logger.error(
                        "loop %s exhausted its %d-run restart budget",
                        self.name,
                        self.policy.max_attempts,
                    )
                    raise
                await self._sleep(self.policy.delay(runs))
                self.restarts += 1
                if self._on_restart is not None:
                    self._on_restart()
