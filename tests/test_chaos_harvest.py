"""Chaos harvests: every injected transport fault maps to one deterministic
DialOutcome + failure_detail.

Each test runs the real stack end to end — a :class:`FullNode` behind a
:class:`ChaosProxy`, harvested by the real ``repro.nodefinder.wire.harvest``
— and asserts the exact outcome the
fault must produce.  This is the §4 failure-accounting contract: a reset is
never logged as a timeout, a stall is never logged as a refusal.
"""

import asyncio

import pytest

from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.fullnode import FullNode
from repro.nodefinder.wire import harvest
from repro.nodefinder.records import DialOutcome
from tests.support.chaos import ChaosConfig, ChaosProxy, FaultType

pytestmark = pytest.mark.chaos

#: a tight per-stage deadline so stall faults resolve in well under a second
FAST = 0.6


def run(coro):
    return asyncio.run(coro)


async def harvest_through_fault(config, dial_timeout=FAST):
    """Start a node, put a chaos proxy in front of it, harvest through it."""
    node = FullNode(PrivateKey(4242))
    await node.start()
    proxy = await ChaosProxy(node.host, node.tcp_port, config).start()
    # the enode carries the node's real ID but the proxy's address, so the
    # ECIES handshake works whenever bytes actually flow
    target = ENode(
        node_id=node.node_id, ip=proxy.host, udp_port=proxy.port,
        tcp_port=proxy.port,
    )
    try:
        return await harvest(target, PrivateKey(4243), dial_timeout=dial_timeout), proxy
    finally:
        await proxy.stop()
        await node.stop()


class TestProxyFaults:
    def test_latency_still_harvests(self):
        async def scenario():
            config = ChaosConfig(fault=FaultType.LATENCY, latency=0.01)
            result, _ = await harvest_through_fault(config, dial_timeout=5.0)
            assert result.outcome is DialOutcome.FULL_HARVEST
            assert result.got_hello and result.got_status
            assert result.failure_stage is None

        run(scenario())

    def test_truncate_is_rlpx_failed_truncated(self):
        async def scenario():
            config = ChaosConfig(fault=FaultType.TRUNCATE)
            result, proxy = await harvest_through_fault(config)
            assert result.outcome is DialOutcome.RLPX_FAILED
            assert result.failure_stage == "rlpx"
            assert result.failure_detail == "truncated"
            assert proxy.faults_injected >= 1

        run(scenario())

    def test_garbage_is_rlpx_failed_protocol(self):
        async def scenario():
            config = ChaosConfig(fault=FaultType.GARBAGE)
            result, _ = await harvest_through_fault(config)
            assert result.outcome is DialOutcome.RLPX_FAILED
            assert result.failure_stage == "rlpx"
            assert result.failure_detail == "protocol"

        run(scenario())

    def test_reset_is_rlpx_failed_reset(self):
        async def scenario():
            config = ChaosConfig(fault=FaultType.RESET)
            result, _ = await harvest_through_fault(config)
            assert result.outcome is DialOutcome.RLPX_FAILED
            assert result.failure_stage == "rlpx"
            assert result.failure_detail == "reset"

        run(scenario())

    def test_stall_is_rlpx_failed_stalled(self):
        async def scenario():
            config = ChaosConfig(fault=FaultType.STALL)
            result, _ = await harvest_through_fault(config)
            assert result.outcome is DialOutcome.RLPX_FAILED
            assert result.failure_stage == "rlpx"
            assert result.failure_detail == "stalled"

        run(scenario())

    def test_refused_is_connection_refused(self):
        # the sixth fault class needs no proxy: dial a closed port
        async def scenario():
            target = ENode(
                node_id=PrivateKey(4244).public_key.to_bytes(),
                ip="127.0.0.1", udp_port=1, tcp_port=1,
            )
            result = await harvest(target, PrivateKey(4245), dial_timeout=FAST)
            assert result.outcome is DialOutcome.CONNECTION_REFUSED
            assert result.failure_stage == "connect"
            assert result.failure_detail == "refused"

        run(scenario())

    def test_none_of_the_faults_count_as_completed(self):
        # completed == joins StaticNodes (§4); faults must never qualify
        for outcome in (
            DialOutcome.TIMEOUT,
            DialOutcome.CONNECTION_REFUSED,
            DialOutcome.RLPX_FAILED,
        ):
            assert not outcome.completed
