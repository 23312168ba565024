"""SimClock tests: ordering, scheduling, periodic events.

Every behavioural test runs against both scheduler implementations
(:class:`WheelClock`, the production calendar wheel, and
:class:`ReferenceClock`, the binary-heap executable spec), and a
Hypothesis suite drives arbitrary interleavings of the public API
through both at once, asserting identical firing traces — the
property-based wing of ``tests/test_clock_equivalence.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simnet.clock import (
    ReferenceClock,
    SimClock,
    WheelClock,
)

CLOCKS = (WheelClock, ReferenceClock)


@pytest.fixture(params=CLOCKS, ids=lambda cls: cls.__name__)
def make_clock(request):
    return request.param


class TestScheduling:
    def test_events_run_in_time_order(self, make_clock):
        clock = make_clock()
        order = []
        clock.schedule(5.0, lambda: order.append("b"))
        clock.schedule(1.0, lambda: order.append("a"))
        clock.schedule(9.0, lambda: order.append("c"))
        clock.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_run_fifo(self, make_clock):
        clock = make_clock()
        order = []
        for name in "abc":
            clock.schedule(1.0, lambda n=name: order.append(n))
        clock.run_until(2.0)
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, make_clock):
        clock = make_clock()
        seen = []
        clock.schedule(3.5, lambda: seen.append(clock.now))
        clock.run_until(10.0)
        assert seen == [3.5]
        assert clock.now == 10.0

    def test_negative_delay_rejected(self, make_clock):
        clock = make_clock()
        with pytest.raises(SimulationError):
            clock.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self, make_clock):
        clock = make_clock(start=100.0)
        seen = []
        clock.schedule_at(105.0, lambda: seen.append(clock.now))
        clock.run_until(110.0)
        assert seen == [105.0]

    def test_events_after_deadline_stay_queued(self, make_clock):
        clock = make_clock()
        seen = []
        clock.schedule(5.0, lambda: seen.append(1))
        clock.run_until(3.0)
        assert seen == []
        assert clock.pending == 1
        clock.run_until(6.0)
        assert seen == [1]

    def test_event_exactly_at_deadline_runs(self, make_clock):
        clock = make_clock()
        seen = []
        clock.schedule(3.0, lambda: seen.append(clock.now))
        clock.run_until(3.0)
        assert seen == [3.0]

    def test_events_scheduled_during_run(self, make_clock):
        clock = make_clock()
        seen = []

        def first():
            clock.schedule(1.0, lambda: seen.append("second"))

        clock.schedule(1.0, first)
        clock.run_until(5.0)
        assert seen == ["second"]


class TestPeriodic:
    def test_schedule_every(self, make_clock):
        clock = make_clock()
        ticks = []
        clock.schedule_every(10.0, lambda: ticks.append(clock.now))
        clock.run_until(45.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_schedule_every_until(self, make_clock):
        clock = make_clock()
        ticks = []
        clock.schedule_every(10.0, lambda: ticks.append(clock.now), until=25.0)
        clock.run_until(100.0)
        assert ticks == [10.0, 20.0]

    def test_schedule_every_fires_at_exact_until(self, make_clock):
        # fire-at-until contract: a tick landing exactly on the boundary
        # runs; only ticks strictly after it are dropped
        clock = make_clock()
        ticks = []
        clock.schedule_every(10.0, lambda: ticks.append(clock.now), until=40.0)
        clock.run_until(100.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_zero_interval_rejected(self, make_clock):
        with pytest.raises(SimulationError):
            make_clock().schedule_every(0.0, lambda: None)

    def test_max_events_guard(self, make_clock):
        clock = make_clock()
        clock.schedule_every(0.001, lambda: None)
        with pytest.raises(SimulationError):
            clock.run_until(100.0, max_events=50)

    def test_max_events_drain_on_exact_budget(self, make_clock):
        # draining on exactly the max-th event is success, not failure
        clock = make_clock()
        seen = []
        for index in range(4):
            clock.schedule(float(index + 1), lambda i=index: seen.append(i))
        clock.run_until(10.0, max_events=4)
        assert seen == [0, 1, 2, 3]
        assert clock.now == 10.0


class TestTimeHelpers:
    def test_run_for(self, make_clock):
        clock = make_clock(start=100.0)
        clock.run_for(50.0)
        assert clock.now == 150.0

    def test_events_processed_counter(self, make_clock):
        clock = make_clock()
        for _ in range(5):
            clock.schedule(1.0, lambda: None)
        clock.run_until(2.0)
        assert clock.events_processed == 5


class TestWheelSpecifics:
    """Wheel-only construction guards (no reference counterpart)."""

    def test_bad_tick_rejected(self):
        with pytest.raises(SimulationError):
            WheelClock(tick=0.0)

    def test_bad_slots_rejected(self):
        with pytest.raises(SimulationError):
            WheelClock(slots=1)

    def test_alias_is_wheel(self):
        assert SimClock is WheelClock


# -- property-based equivalence ----------------------------------------------
#
# Arbitrary interleavings of the public API, applied identically to both
# implementations; firing traces, `now`, and queue sizes must match.

_op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    ),
    st.tuples(
        st.just("schedule_at"),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    ),
    st.tuples(
        st.just("every"),
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    ),
    st.tuples(
        st.just("every_jitter"),
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    ),
    st.tuples(
        st.just("every_until"),
        st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    ),
    st.tuples(
        st.just("run_until"),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    st.tuples(
        st.just("run_for"),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
)


def _apply(clock_cls, ops, **kwargs):
    clock = clock_cls(**kwargs)
    trace = []
    rng = random.Random(4242)  # same jitter draws on both clocks
    counter = 0

    def fire(tag):
        def callback():
            trace.append((tag, clock.now))

        return callback

    for op, value in ops:
        tag = f"{op}{counter}"
        counter += 1
        if op == "schedule":
            clock.schedule(value, fire(tag))
        elif op == "schedule_at":
            clock.schedule_at(clock.now + value, fire(tag))
        elif op == "every":
            clock.schedule_every(value, fire(tag))
        elif op == "every_jitter":
            clock.schedule_every(
                value, fire(tag), jitter=lambda: rng.uniform(-0.4, 0.4)
            )
        elif op == "every_until":
            clock.schedule_every(value, fire(tag), until=clock.now + 5 * value)
        elif op == "run_until":
            clock.run_until(clock.now + value)
        elif op == "run_for":
            clock.run_for(value)
    # final bounded drain (periodic loops never empty the queue)
    clock.run_until(clock.now + 100.0)
    return clock, trace


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=14))
    def test_arbitrary_interleavings_match(self, ops):
        wheel, wheel_trace = _apply(WheelClock, ops)
        reference, reference_trace = _apply(ReferenceClock, ops)
        assert wheel_trace == reference_trace
        assert wheel.now == reference.now
        assert wheel.events_processed == reference.events_processed
        assert wheel.pending == reference.pending

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=10))
    def test_tiny_wheel_matches_reference(self, ops):
        # 4 slots of 0.25s: nearly everything crosses the overflow horizon
        wheel, wheel_trace = _apply(WheelClock, ops, tick=0.25, slots=4)
        reference, reference_trace = _apply(ReferenceClock, ops)
        assert wheel_trace == reference_trace
        assert wheel.now == reference.now

    @settings(max_examples=30, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_max_events_boundary_matches(self, delays):
        # with exactly len(delays) due events, a budget of len(delays)
        # succeeds on both clocks and a budget one short raises on both
        for clock_cls in CLOCKS:
            clock = clock_cls()
            for delay in delays:
                clock.schedule(delay, lambda: None)
            clock.run_until(11.0, max_events=len(delays))
            assert clock.pending == 0
        for clock_cls in CLOCKS:
            clock = clock_cls()
            for delay in delays:
                clock.schedule(delay, lambda: None)
            if len(delays) == 1:
                continue
            with pytest.raises(SimulationError):
                clock.run_until(11.0, max_events=len(delays) - 1)

    @settings(max_examples=20, deadline=None)
    @given(
        delay=st.floats(
            max_value=-1e-9, min_value=-1e6, allow_nan=False
        )
    )
    def test_negative_delay_rejected_on_both(self, delay):
        for clock_cls in CLOCKS:
            with pytest.raises(SimulationError):
                clock_cls().schedule(delay, lambda: None)
