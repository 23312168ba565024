"""End-to-end integration: live nodes, real sockets, real crawls."""

import asyncio

import pytest

from repro.chain.chain import HeaderChain
from repro.chain.genesis import custom_genesis, mainnet_genesis
from repro.crypto.keys import PrivateKey
from repro.devp2p.messages import DisconnectReason
from repro.chain.forks import DAO_FORK_BLOCK
from repro.fullnode import FullNode, FullNodeConfig, start_localhost_network
from repro.nodefinder.database import NodeDB
from repro.nodefinder.wire import harvest
from repro.nodefinder.records import DialOutcome


def run(coroutine):
    return asyncio.run(coroutine)


class TestLocalhostNetwork:
    def test_network_starts_and_discovers(self):
        async def scenario():
            nodes = await start_localhost_network(4, blocks=8)
            try:
                # every non-bootstrap node bonded with the bootstrap
                boot = nodes[0]
                assert len(boot.discovery.table) >= 3
            finally:
                for node in nodes:
                    await node.stop()

        run(scenario())

    def test_crawl_harvests_all(self):
        async def scenario():
            nodes = await start_localhost_network(4, blocks=8)
            try:
                db = NodeDB()
                for node in nodes:
                    db.observe(await harvest(node.enode, PrivateKey(42)))
                assert len(db.nodes_with_status()) == 4
                for entry in db:
                    assert entry.network_id == 1
                    assert entry.genesis_hash == nodes[0].chain.genesis_hash
                    assert entry.median_latency is not None
            finally:
                for node in nodes:
                    await node.stop()

        run(scenario())

    def test_harvest_duration_under_a_second(self):
        """§4: NodeFinder occupies peer slots for less than a second."""

        async def scenario():
            node = FullNode()
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(43))
                assert result.outcome is DialOutcome.FULL_HARVEST
                assert result.duration < 1.0
            finally:
                await node.stop()

        run(scenario())


class TestPeerLimit:
    def test_too_many_peers_when_full(self):
        async def scenario():
            node = FullNode(config=FullNodeConfig(max_peers=0))
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(44))
                assert result.outcome is DialOutcome.HELLO_THEN_DISCONNECT
                assert result.disconnect_reason is DisconnectReason.TOO_MANY_PEERS
                assert result.client_id  # HELLO still exchanged
                assert node.stats["too_many_peers_sent"] == 1
            finally:
                await node.stop()

        run(scenario())


class TestDaoForkCheck:
    def _chain_with_fork(self, stamped: bool) -> HeaderChain:
        # a tiny chain whose "DAO fork block" is reachable: we cheat the
        # height by mining few blocks and aiming the harvest at a node
        # whose chain has the fork block — so mine past it in fast mode
        chain = HeaderChain(mainnet_genesis(), validate=False)
        from repro.chain.header import BlockHeader
        from repro.chain.chain import BLOCK_INTERVAL
        from repro.chain.header import EMPTY_TRIE_ROOT, EMPTY_UNCLES_HASH

        parent = chain.genesis
        for number in (DAO_FORK_BLOCK - 1, DAO_FORK_BLOCK, DAO_FORK_BLOCK + 1):
            header = BlockHeader(
                parent_hash=parent.hash(),
                uncles_hash=EMPTY_UNCLES_HASH,
                coinbase=b"\x00" * 20,
                state_root=b"\x11" * 32,
                tx_root=EMPTY_TRIE_ROOT,
                receipt_root=EMPTY_TRIE_ROOT,
                bloom=b"\x00" * 256,
                difficulty=1,
                number=number,
                gas_limit=8_000_000,
                gas_used=0,
                timestamp=parent.timestamp + BLOCK_INTERVAL,
                extra_data=b"dao-hard-fork" if (stamped and number == DAO_FORK_BLOCK) else b"",
                mix_hash=b"\x00" * 32,
                nonce=b"\x00" * 8,
            )
            # bypass contiguity: headers indexed by their real numbers
            chain._headers.extend([None] * (number - len(chain._headers) + 1))  # type: ignore[arg-type]
            chain._headers[number] = header
            chain._by_hash[header.hash()] = number
            parent = header
        return chain

    def test_mainstream_node_supports(self):
        async def scenario():
            node = FullNode(chain=self._chain_with_fork(stamped=True))
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(45))
                assert result.dao_side == "supports"
            finally:
                await node.stop()

        run(scenario())

    def test_classic_node_opposes(self):
        async def scenario():
            node = FullNode(chain=self._chain_with_fork(stamped=False))
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(46))
                assert result.dao_side == "opposes"
            finally:
                await node.stop()

        run(scenario())

    def test_short_chain_answers_empty(self):
        async def scenario():
            chain = HeaderChain(mainnet_genesis())
            chain.mine(4)
            node = FullNode(chain=chain)
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(47))
                assert result.dao_side == "empty"
            finally:
                await node.stop()

        run(scenario())


class TestHeterogeneousNetwork:
    def test_other_network_node_still_harvestable(self):
        """A peer on another chain yields its STATUS (how Figure 9 data
        accumulates), even though a normal client would disconnect it."""

        async def scenario():
            chain = HeaderChain(custom_genesis("expanse"), validate=False)
            node = FullNode(
                chain=chain,
                config=FullNodeConfig(
                    client_id="Gexp/v1.7.2-stable/linux-amd64/go1.9", network_id=2
                ),
            )
            await node.start()
            try:
                result = await harvest(node.enode, PrivateKey(48))
                assert result.outcome is DialOutcome.FULL_HARVEST
                assert result.network_id == 2
                assert result.genesis_hash == custom_genesis("expanse").hash()
                assert result.dao_side is None  # not Mainnet genesis: no check
            finally:
                await node.stop()

        run(scenario())

    def test_dead_target_refused(self):
        async def scenario():
            node = FullNode()
            await node.start()
            enode = node.enode
            await node.stop()
            result = await harvest(enode, PrivateKey(49), dial_timeout=1.5)
            # the port is closed again, so the dial is actively refused —
            # distinguishable from an unreachable host timing out
            assert result.outcome is DialOutcome.CONNECTION_REFUSED
            assert result.failure_stage == "connect"
            assert not result.outcome.completed

        run(scenario())
