"""Unit coverage for repro.resilience: restart schedules, stage deadlines,
circuit breakers, and loop supervision — all under injected clocks, so not
a single test sleeps for real."""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    DEFAULT_SUPERVISOR_POLICY,
    LoopSupervisor,
    PeerScoreboard,
    RetryPolicy,
    StageTimeout,
    bounded,
)


def run(coro):
    return asyncio.run(coro)


# -- RetryPolicy ------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.2, multiplier=2.0, max_delay=1.0
        )
        assert [policy.delay(attempt) for attempt in range(1, 5)] == [0.2, 0.4, 0.8, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# -- bounded ----------------------------------------------------------------


class TestStageDeadlines:
    def test_bounded_passes_results_through(self):
        async def value():
            return "payload"

        assert run(bounded(value(), 1.0, "hello")) == "payload"

    def test_bounded_raises_stage_timeout(self):
        async def stall():
            await asyncio.sleep(30.0)

        async def scenario():
            with pytest.raises(StageTimeout) as excinfo:
                await bounded(stall(), 0.05, "status")
            assert excinfo.value.stage == "status"
            assert excinfo.value.budget == 0.05

        run(scenario())


# -- CircuitBreaker / PeerScoreboard ---------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=100.0):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=threshold, cooldown=cooldown, clock=lambda: now[0]
        )
        return breaker, now

    def test_opens_after_threshold_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        breaker, now = self.make(cooldown=100.0)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 100.0
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else keeps waiting

    def test_successful_probe_closes(self):
        breaker, now = self.make()
        for _ in range(3):
            breaker.record_failure()
        now[0] = 150.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker, now = self.make(cooldown=100.0)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 100.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        now[0] = 150.0  # only 50s into the *restarted* cooldown
        assert breaker.state is BreakerState.OPEN
        now[0] = 200.0
        assert breaker.state is BreakerState.HALF_OPEN

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_scoreboard_keys_are_independent(self):
        now = [0.0]
        board = PeerScoreboard(
            failure_threshold=2, cooldown=60.0, clock=lambda: now[0]
        )
        bad, good = b"\x01" * 64, b"\x02" * 64
        board.record_failure(bad)
        board.record_failure(bad)
        board.record_success(good)
        assert board.state(bad) is BreakerState.OPEN
        assert board.state(good) is BreakerState.CLOSED
        assert not board.allow(bad)
        assert board.allow(good)
        assert board.state(bad) is BreakerState.OPEN
        board.forget(bad)
        assert board.state(bad) is BreakerState.CLOSED
        assert board.allow(bad)  # fresh breaker after forget

    def test_unknown_peer_is_closed(self):
        board = PeerScoreboard()
        assert board.state(b"\x07" * 64) is BreakerState.CLOSED


class TestBreakerNeverWedges:
    """Property: no sequence of outcomes leaves a breaker permanently
    refusing dials.  Whatever state a failure/success/probe history
    reaches, a peer that starts answering again is dialable within two
    cooldown windows — the liveness half of the breaker contract (the
    safety half, "OPEN refuses", is pinned above)."""

    OPS = st.lists(
        st.sampled_from(
            ["failure", "success", "allow", "tick", "cooldown_tick"]
        ),
        max_size=40,
    )

    @given(ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_single_breaker_recovers(self, ops):
        state = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown=60.0, clock=lambda: state["now"]
        )
        for op in ops:
            if op == "failure":
                breaker.record_failure()
            elif op == "success":
                breaker.record_success()
            elif op == "allow":
                breaker.allow()  # may consume the HALF_OPEN probe slot
            elif op == "tick":
                state["now"] += 1.0
            else:
                state["now"] += 61.0
        # recovery: wait out the cooldown; if the probe slot is held by a
        # dial the sequence never reported, report it, and wait once more
        state["now"] += 61.0
        if not breaker.allow():
            breaker.record_failure()
            state["now"] += 61.0
            assert breaker.allow(), "breaker wedged shut"
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    @given(ops=OPS)
    @settings(max_examples=100, deadline=None)
    def test_scoreboard_with_subnet_dimension_recovers(self, ops):
        state = {"now": 0.0}
        board = PeerScoreboard(
            failure_threshold=2,
            cooldown=60.0,
            clock=lambda: state["now"],
            subnet_failure_threshold=3,
            subnet_cooldown=120.0,
        )
        peer, other = b"\x01" * 64, b"\x02" * 64
        ip, other_ip = "66.66.66.1", "66.66.66.2"
        for op in ops:
            if op == "failure":
                board.record_failure(peer, ip)
                board.record_failure(other, other_ip)
            elif op == "success":
                board.record_success(peer, ip)
            elif op == "allow":
                board.allow(peer, ip)
            elif op == "tick":
                state["now"] += 1.0
            else:
                state["now"] += 121.0
        state["now"] += 121.0
        if not board.allow(peer, ip):
            board.record_failure(peer, ip)
            state["now"] += 121.0
            assert board.allow(peer, ip), "scoreboard wedged shut"
        board.record_success(peer, ip)
        assert board.state(peer) is BreakerState.CLOSED
        assert board.subnet_state(ip) is BreakerState.CLOSED
        assert board.allow(peer, ip)


# -- LoopSupervisor ---------------------------------------------------------


class TestLoopSupervisor:
    def test_restarts_a_crashed_loop(self):
        crashed = []
        restarted = []

        async def scenario():
            runs = [0]

            async def loop():
                runs[0] += 1
                if runs[0] == 1:
                    raise RuntimeError("first run dies")
                # second run exits cleanly, as a loop seeing its stop flag does

            async def no_sleep(delay):
                pass

            supervisor = LoopSupervisor(
                "test-loop",
                loop,
                sleep=no_sleep,
                on_crash=lambda exc: crashed.append(exc),
                on_restart=lambda: restarted.append(True),
            )
            await supervisor.run()
            assert runs[0] == 2
            assert supervisor.crashes == 1
            assert supervisor.restarts == 1
            assert isinstance(supervisor.last_error, RuntimeError)

        run(scenario())
        assert len(crashed) == 1 and len(restarted) == 1

    def test_exhausted_budget_reraises_the_last_crash(self):
        async def scenario():
            async def loop():
                raise ValueError("always dies")

            async def no_sleep(delay):
                pass

            supervisor = LoopSupervisor(
                "doomed",
                loop,
                policy=RetryPolicy(max_attempts=3, base_delay=0.0),
                sleep=no_sleep,
            )
            with pytest.raises(ValueError):
                await supervisor.run()
            assert supervisor.crashes == 3
            assert supervisor.restarts == 2

        run(scenario())

    def test_cancellation_propagates_without_a_restart(self):
        async def scenario():
            started = asyncio.Event()

            async def loop():
                started.set()
                await asyncio.sleep(3600)

            supervisor = LoopSupervisor("cancelled", loop)
            task = asyncio.ensure_future(supervisor.run())
            await started.wait()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert supervisor.crashes == 0
            assert supervisor.restarts == 0

        run(scenario())

    def test_default_policy_is_shared(self):
        supervisor = LoopSupervisor("defaults", lambda: None)
        assert supervisor.policy is DEFAULT_SUPERVISOR_POLICY
