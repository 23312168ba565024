"""Per-peer failure scoring: circuit breakers over the dial schedule.

The discovery fabric keeps re-surfacing the same enodes, and the static
list re-dials every entry each cycle; without damping, a dead or
adversarial peer is hammered on every pass — the paper's deployment ran
against a network where Henningsen et al. later showed actively hostile
peers exist.  A :class:`CircuitBreaker` per enode moves through the
classic three states: CLOSED (dial freely) → OPEN after
``failure_threshold`` consecutive transport failures (dials are skipped)
→ HALF_OPEN once ``cooldown`` seconds pass (exactly one probe dial is
admitted; success closes the breaker, failure re-opens it and restarts
the cooldown).  The clock is injectable so every transition is testable
without sleeping.
"""

from __future__ import annotations

import enum
import ipaddress
import time
from typing import Callable, Dict, Optional, Tuple


class BreakerState(enum.Enum):
    """Where one peer's breaker currently sits."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure scoring for a single peer.

    ``on_transition(old, new)`` is an optional observability hook fired
    whenever the breaker's state changes (including the lazy
    OPEN → HALF_OPEN move, reported when a caller first observes it).
    The breaker has no dependency on the telemetry package — the owner
    wires the hook into whatever instrument it keeps.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 300.0,
        clock: Optional[Callable[[], float]] = None,
        on_transition: Optional[
            Callable[[BreakerState, BreakerState], None]
        ] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock if clock is not None else time.monotonic
        self._on_transition = on_transition
        self.failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._reported = BreakerState.CLOSED

    def _sync_state(self) -> BreakerState:
        """Fire the transition hook if the observable state moved."""
        state = self.state
        if state is not self._reported:
            old, self._reported = self._reported, state
            if self._on_transition is not None:
                self._on_transition(old, state)
        return state

    @property
    def state(self) -> BreakerState:
        if self._opened_at is None:
            return BreakerState.CLOSED
        if self._clock() - self._opened_at >= self.cooldown:
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def allow(self) -> bool:
        """May the caller dial this peer right now?

        In HALF_OPEN exactly one probe is admitted until it reports back
        via :meth:`record_success` / :meth:`record_failure`.
        """
        state = self._sync_state()
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            return False
        if self._probing:
            return False
        self._probing = True
        return True

    def would_allow(self) -> bool:
        """:meth:`allow` without consuming the HALF_OPEN probe slot.

        Lets a caller combine several breakers (peer + subnet) and only
        burn probe slots once every dimension has agreed to the dial.
        """
        state = self._sync_state()
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.OPEN:
            return False
        return not self._probing

    def record_success(self) -> None:
        self.failures = 0
        self._opened_at = None
        self._probing = False
        self._sync_state()

    def record_failure(self) -> None:
        self._probing = False
        if self._opened_at is not None:
            # failed probe (or failure racing the open window): the peer is
            # still down — restart the cooldown from now
            self._opened_at = self._clock()
            self._sync_state()
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._opened_at = self._clock()
        self._sync_state()


def subnet_of(ip: Optional[str], prefix_bits: int = 24) -> Optional[str]:
    """The ``a.b.c.0/24``-style prefix an address belongs to.

    Returns ``None`` for missing or unparseable addresses so callers can
    skip the subnet dimension for them.
    """
    if not ip:
        return None
    try:
        return str(ipaddress.ip_network(f"{ip}/{prefix_bits}", strict=False))
    except ValueError:
        return None


class PeerScoreboard:
    """Circuit breakers keyed by node ID, lazily created.

    ``on_transition(node_id, old, new)`` mirrors the per-breaker hook
    with the owning node ID bound in.

    A second, optional *subnet* dimension guards against coordinated
    failure: when ``subnet_failure_threshold`` is set, every dial outcome
    also scores a breaker keyed by the peer's ``/subnet_prefix_bits``
    prefix, and :meth:`allow` refuses a peer whose whole prefix has
    tripped — a Sybil swarm minted from one /24 burns one breaker, not
    one breaker per phantom enode.  Callers opt in per call by passing
    the peer's ``ip``; probe slots are only consumed once both
    dimensions agree, so combining them cannot wedge either breaker in
    HALF_OPEN.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 300.0,
        clock: Optional[Callable[[], float]] = None,
        on_transition: Optional[
            Callable[[bytes, BreakerState, BreakerState], None]
        ] = None,
        subnet_failure_threshold: Optional[int] = None,
        subnet_cooldown: Optional[float] = None,
        subnet_prefix_bits: int = 24,
        on_subnet_transition: Optional[
            Callable[[str, BreakerState, BreakerState], None]
        ] = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._on_transition = on_transition
        self._breakers: Dict[bytes, CircuitBreaker] = {}
        self.subnet_failure_threshold = subnet_failure_threshold
        self.subnet_cooldown = (
            subnet_cooldown if subnet_cooldown is not None else cooldown
        )
        self.subnet_prefix_bits = subnet_prefix_bits
        self._on_subnet_transition = on_subnet_transition
        self._subnet_breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, node_id: bytes) -> CircuitBreaker:
        existing = self._breakers.get(node_id)
        if existing is None:
            hook = None
            if self._on_transition is not None:
                report = self._on_transition

                def hook(old, new, _id=node_id):
                    report(_id, old, new)

            existing = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                cooldown=self.cooldown,
                clock=self._clock,
                on_transition=hook,
            )
            self._breakers[node_id] = existing
        return existing

    def _subnet_breaker(self, ip: Optional[str]) -> Optional[CircuitBreaker]:
        if self.subnet_failure_threshold is None:
            return None
        subnet = subnet_of(ip, self.subnet_prefix_bits)
        if subnet is None:
            return None
        existing = self._subnet_breakers.get(subnet)
        if existing is None:
            hook = None
            if self._on_subnet_transition is not None:
                report = self._on_subnet_transition

                def hook(old, new, _subnet=subnet):
                    report(_subnet, old, new)

            existing = CircuitBreaker(
                failure_threshold=self.subnet_failure_threshold,
                cooldown=self.subnet_cooldown,
                clock=self._clock,
                on_transition=hook,
            )
            self._subnet_breakers[subnet] = existing
        return existing

    def allow(self, node_id: bytes, ip: Optional[str] = None) -> bool:
        peer = self.breaker(node_id)
        subnet = self._subnet_breaker(ip)
        if subnet is None:
            return peer.allow()
        # probe-slot discipline: agree on both dimensions before
        # consuming either HALF_OPEN probe, else a refused dial would
        # leave the other breaker waiting on a report that never comes
        if not peer.would_allow() or not subnet.would_allow():
            return False
        return peer.allow() and subnet.allow()

    def record_success(self, node_id: bytes, ip: Optional[str] = None) -> None:
        self.breaker(node_id).record_success()
        subnet = self._subnet_breaker(ip)
        if subnet is not None:
            subnet.record_success()

    def record_failure(self, node_id: bytes, ip: Optional[str] = None) -> None:
        self.breaker(node_id).record_failure()
        subnet = self._subnet_breaker(ip)
        if subnet is not None:
            subnet.record_failure()

    def state(self, node_id: bytes) -> BreakerState:
        existing = self._breakers.get(node_id)
        return existing.state if existing is not None else BreakerState.CLOSED

    def subnet_state(self, ip: Optional[str]) -> BreakerState:
        subnet = subnet_of(ip, self.subnet_prefix_bits)
        existing = (
            self._subnet_breakers.get(subnet) if subnet is not None else None
        )
        return existing.state if existing is not None else BreakerState.CLOSED

    @property
    def open_subnets(self) -> Tuple[str, ...]:
        """Prefixes currently backed off wholesale, sorted for stats."""
        return tuple(
            sorted(
                subnet
                for subnet, breaker in self._subnet_breakers.items()
                if breaker.state is BreakerState.OPEN
            )
        )

    def forget(self, node_id: bytes) -> None:
        """Drop a peer's breaker (e.g. when its address is pruned)."""
        self._breakers.pop(node_id, None)

    def __len__(self) -> int:
        return len(self._breakers)
