"""Wire-level NodeFinder tests: the §4 harvest over real sockets."""

import asyncio

import pytest

from repro.crypto.keys import PrivateKey
from repro.devp2p.messages import Capability, HelloMessage
from repro.discovery.enode import ENode
from repro.fullnode import FullNode, FullNodeConfig
from repro.nodefinder.wire import (
    crawl_targets,
    harvest,
    nodefinder_hello,
    nodefinder_status,
)
from repro.nodefinder.records import DialOutcome


def run(coroutine):
    return asyncio.run(coroutine)


class TestHelloAndStatus:
    def test_nodefinder_hello_shape(self):
        key = PrivateKey(5)
        hello = nodefinder_hello(key)
        assert hello.supports("eth", 62) and hello.supports("eth", 63)
        assert hello.node_id == key.public_key.to_bytes()
        assert "Geth/v1.7.3" in hello.client_id  # NodeFinder's base (§4)

    def test_nodefinder_status_is_mainnet(self):
        status = nodefinder_status()
        assert status.network_id == 1
        assert status.is_mainnet


class TestHarvestRecords:
    def test_harvest_fills_database_fields(self):
        async def scenario():
            node = FullNode()
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(71))
                assert result.outcome is DialOutcome.FULL_HARVEST
                assert result.connection_type == "dynamic-dial"
                assert result.capabilities == [("eth", 62), ("eth", 63)]
                assert result.latency is not None and result.latency >= 0
                assert result.total_difficulty == node.chain.total_difficulty
                assert result.best_hash == node.chain.best_hash
            finally:
                await node.stop()

        run(scenario())

    def test_crawl_concurrency_limit(self):
        """maxActiveDialTasks=16: more targets than slots still completes."""

        async def scenario():
            nodes = []
            for index in range(6):
                node = FullNode(PrivateKey(900 + index))
                await node.start()
                nodes.append(node)
            try:
                db = await crawl_targets(
                    [n.enode for n in nodes], PrivateKey(72), concurrency=2
                )
                assert len(db.nodes_with_status()) == 6
                for entry in db:
                    assert entry.outbound_success
            finally:
                for node in nodes:
                    await node.stop()

        run(scenario())

    def test_non_eth_peer_marked_useless(self):
        """A Swarm-only peer yields HELLO but no STATUS."""

        async def scenario():
            node = FullNode()
            # make the node advertise bzz only
            node.config.client_id = "swarm/v0.3.1/linux"

            def bzz_hello():
                return HelloMessage(
                    version=5,
                    client_id=node.config.client_id,
                    capabilities=[Capability("bzz", 0)],
                    listen_port=node.tcp_port,
                    node_id=node.node_id,
                )

            node.our_hello = bzz_hello  # type: ignore[assignment]
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(73))
                assert result.outcome is DialOutcome.HELLO_THEN_DISCONNECT
                assert result.client_id == "swarm/v0.3.1/linux"
                assert not result.got_status
            finally:
                await node.stop()

        run(scenario())

    def test_harvest_unreachable_target(self):
        # a closed localhost port answers with RST: that is a *refused*
        # connection, not a timeout — the fine-grained accounting keeps them
        # apart (a flat TIMEOUT conflated both)
        async def scenario():
            target = ENode(PrivateKey(74).public_key.to_bytes(), "127.0.0.1", 1, 1)
            result = await harvest(target, PrivateKey(75), dial_timeout=1.0)
            assert result.outcome is DialOutcome.CONNECTION_REFUSED
            assert result.failure_stage == "connect"
            assert result.failure_detail == "refused"
            assert not result.outcome.connected
            assert result.duration < 5.0

        run(scenario())
