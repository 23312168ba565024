"""CI guard: the no-op telemetry default must be free.

Every dial in the live crawler runs the full record pipeline — span with
five stage children, ``record_dial`` fan-out — even when nobody attached
a telemetry sink.  This benchmark prices that pipeline against a real
localhost harvest and fails if the null path ever costs more than 5% of
a dial (ISSUE: observability must not tax the measurement)."""

import asyncio
import time

import pytest

from repro.crypto.keys import PrivateKey
from repro.fullnode import FullNode
from repro.nodefinder.wire import harvest
from repro.nodefinder.records import DialOutcome, DialResult
from repro.telemetry import NULL_TELEMETRY, Profiler, Telemetry

pytestmark = pytest.mark.benchmark

HARVESTS = 10
PIPELINE_ITERATIONS = 5_000
STAGES = ("connect", "rlpx", "hello", "status", "dao")


def synthetic_result() -> DialResult:
    return DialResult(
        timestamp=0.0,
        node_id=b"\x01" * 64,
        ip="127.0.0.1",
        tcp_port=30303,
        connection_type="dynamic-dial",
        outcome=DialOutcome.FULL_HARVEST,
        duration=0.5,
        client_id="Geth/v1.7.3-stable/linux-amd64/go1.9",
        capabilities=[("eth", 63)],
        listen_port=30303,
        network_id=1,
        genesis_hash=b"\x02" * 32,
        total_difficulty=17,
        best_hash=b"\x03" * 32,
        dao_side="supports",
    )


def time_null_pipeline(iterations: int) -> float:
    """Seconds per dial spent in the NULL_TELEMETRY record pipeline."""
    result = synthetic_result()
    started = time.perf_counter()
    for _ in range(iterations):
        span = NULL_TELEMETRY.start_span("dial")
        for stage in STAGES:
            span.child(stage).finish()
        span.finish(result.outcome.value)
        NULL_TELEMETRY.record_dial(result, span=span)
    return (time.perf_counter() - started) / iterations


def time_profiled_pipeline(iterations: int) -> float:
    """Seconds per dial with a live wall-clock profiler.

    This is the profiler-on price: a journal-less Telemetry with a
    ``Profiler()`` timing a scope around every record, the way
    ``run_fleet(profiler=...)`` wraps each dial."""
    result = synthetic_result()
    profiler = Profiler()  # wall clock by reference
    telemetry = Telemetry(profiler=profiler)
    started = time.perf_counter()
    for _ in range(iterations):
        with profiler.scope("scanner.dial"):
            span = telemetry.start_span("dial")
            for stage in STAGES:
                span.child(stage).finish()
            span.finish(result.outcome.value)
            telemetry.record_dial(result, span=span)
    return (time.perf_counter() - started) / iterations


def _harvest_seconds() -> float:
    async def scenario() -> float:
        node = FullNode()
        await node.start()
        try:
            key = PrivateKey(60)
            started = time.perf_counter()
            for _ in range(HARVESTS):
                result = await harvest(node.enode, key)
                assert result.outcome is DialOutcome.FULL_HARVEST
            return (time.perf_counter() - started) / HARVESTS
        finally:
            await node.stop()

    return asyncio.run(scenario())


def test_null_telemetry_overhead_under_5_percent_of_harvest():
    seconds_per_harvest = _harvest_seconds()
    seconds_per_record = time_null_pipeline(PIPELINE_ITERATIONS)
    # generous even on a noisy CI box: the pipeline is a handful of method
    # calls and one real clock read per span, the harvest is a TCP dial
    # plus an ECIES handshake plus five protocol exchanges
    assert seconds_per_record < 0.05 * seconds_per_harvest, (
        f"null telemetry pipeline costs {seconds_per_record * 1e6:.1f}µs/dial "
        f"against a {seconds_per_harvest * 1e3:.1f}ms harvest"
    )


def test_profiler_overhead_under_5_percent_of_harvest():
    """The hot-path profiler at default sampling is two clock reads and a
    dict update per scope — it must stay inside the same 5% budget."""
    seconds_per_harvest = _harvest_seconds()
    seconds_per_record = time_profiled_pipeline(PIPELINE_ITERATIONS)
    assert seconds_per_record < 0.05 * seconds_per_harvest, (
        f"profiled pipeline costs {seconds_per_record * 1e6:.1f}µs/dial "
        f"against a {seconds_per_harvest * 1e3:.1f}ms harvest"
    )
