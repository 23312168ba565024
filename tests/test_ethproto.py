"""eth subprotocol message and handshake tests, including the DAO check."""

import asyncio

import pytest

from repro.chain import HeaderChain, SyntheticChain, mainnet_genesis
from repro.chain.forks import DAO_FORK_BLOCK, DAO_FORK_EXTRA_DATA
from repro.chain.genesis import MAINNET_GENESIS_HASH, custom_genesis
from repro.crypto.keys import PrivateKey
from repro.devp2p.messages import Capability, DisconnectReason, HelloMessage
from repro.devp2p.peer import DevP2PPeer
from repro.errors import ProtocolError
from repro.ethproto import messages as eth
from repro.ethproto.forks import DaoForkSide, dao_fork_side
from repro.ethproto.handshake import harvest_dao_check, run_eth_handshake
from repro.rlpx.session import accept_session, open_session


def make_status(**overrides):
    values = dict(
        protocol_version=63,
        network_id=1,
        total_difficulty=3_907_000_000,
        best_hash=b"\xbb" * 32,
        genesis_hash=eth.MAINNET_GENESIS_HASH,
    )
    values.update(overrides)
    return eth.StatusMessage(**values)


class TestStatusMessage:
    def test_roundtrip(self):
        status = make_status()
        assert eth.StatusMessage.decode(status.encode()) == status

    def test_is_mainnet(self):
        assert make_status().is_mainnet
        assert not make_status(network_id=2).is_mainnet
        assert not make_status(genesis_hash=b"\x01" * 32).is_mainnet

    def test_same_chain_as(self):
        assert make_status().same_chain_as(make_status(total_difficulty=5))
        assert not make_status().same_chain_as(make_status(network_id=3))

    def test_fake_mainnet_advertiser(self):
        """§6.1: 10,497 non-Mainnet peers advertised the Mainnet genesis."""
        fake = make_status(network_id=1337)
        assert fake.genesis_hash == eth.MAINNET_GENESIS_HASH
        assert not fake.is_mainnet


class TestGetBlockHeaders:
    def test_origin_by_number(self):
        message = eth.GetBlockHeadersMessage(origin=1920000, amount=1, skip=0, reverse=0)
        decoded = eth.GetBlockHeadersMessage.decode(message.encode())
        assert decoded.origin == 1920000

    def test_origin_by_hash(self):
        message = eth.GetBlockHeadersMessage(
            origin=b"\xcc" * 32, amount=5, skip=1, reverse=1
        )
        decoded = eth.GetBlockHeadersMessage.decode(message.encode())
        assert decoded.origin == b"\xcc" * 32

    def test_headers_answer_roundtrip(self):
        chain = HeaderChain(mainnet_genesis())
        chain.mine(3)
        answer = eth.BlockHeadersMessage.from_headers(chain.get_block_headers(1, 2))
        decoded = eth.BlockHeadersMessage.decode(answer.encode())
        from repro.chain.header import BlockHeader

        headers = [BlockHeader.deserialize_rlp(raw) for raw in decoded.headers]
        assert [h.number for h in headers] == [1, 2]


class TestDaoForkClassification:
    def test_mainstream(self):
        assert dao_fork_side(DAO_FORK_EXTRA_DATA) is DaoForkSide.SUPPORTS_FORK

    def test_classic(self):
        assert dao_fork_side(b"") is DaoForkSide.OPPOSES_FORK
        assert dao_fork_side(b"other") is DaoForkSide.OPPOSES_FORK

    def test_pre_fork_chain(self):
        assert dao_fork_side(None, best_block=100) is DaoForkSide.PRE_FORK

    def test_no_answer(self):
        assert dao_fork_side(None) is DaoForkSide.UNKNOWN
        assert dao_fork_side(None, best_block=DAO_FORK_BLOCK + 1) is DaoForkSide.UNKNOWN

    def test_synthetic_mainnet_has_dao_stamp(self):
        chain = SyntheticChain("mainnet", supports_dao_fork=True)
        assert chain.header_at(DAO_FORK_BLOCK).extra_data == DAO_FORK_EXTRA_DATA

    def test_synthetic_classic_lacks_stamp(self):
        chain = SyntheticChain("classic", supports_dao_fork=False)
        assert chain.header_at(DAO_FORK_BLOCK).extra_data == b""
        assert chain.genesis_hash == MAINNET_GENESIS_HASH  # same genesis!


def make_hello(key: PrivateKey, client="Geth/v1.7.3"):
    return HelloMessage(
        version=5,
        client_id=client,
        capabilities=[Capability("eth", 62), Capability("eth", 63)],
        listen_port=30303,
        node_id=key.public_key.to_bytes(),
    )


async def eth_peers():
    server_key, client_key = PrivateKey(0xCCC), PrivateKey(0xDDD)
    accepted: asyncio.Future = asyncio.get_running_loop().create_future()

    async def on_connection(reader, writer):
        accepted.set_result(await accept_session(reader, writer, server_key))

    server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client_session = await open_session("127.0.0.1", port, client_key, server_key.public_key)
    server_session = await accepted
    server_peer = DevP2PPeer(server_session, make_hello(server_key))
    client_peer = DevP2PPeer(client_session, make_hello(client_key))
    await asyncio.gather(server_peer.handshake(), client_peer.handshake())
    return server_peer, client_peer, server


class TestEthHandshakeOverTCP:
    def test_compatible_peers(self):
        async def scenario():
            server_peer, client_peer, server = await eth_peers()
            results = await asyncio.gather(
                run_eth_handshake(server_peer, make_status()),
                run_eth_handshake(client_peer, make_status(total_difficulty=1)),
            )
            assert results[0].compatible and results[1].compatible
            assert results[0].remote_status.total_difficulty == 1
            server.close()

        asyncio.run(scenario())

    def test_network_mismatch_flagged(self):
        async def scenario():
            server_peer, client_peer, server = await eth_peers()
            results = await asyncio.gather(
                run_eth_handshake(server_peer, make_status(network_id=2)),
                run_eth_handshake(client_peer, make_status()),
            )
            assert not results[0].compatible
            assert results[0].mismatch_reason is DisconnectReason.USELESS_PEER
            server.close()

        asyncio.run(scenario())

    def test_genesis_mismatch_flagged(self):
        """Ethereum Classic case: same network id, different chain view."""

        async def scenario():
            server_peer, client_peer, server = await eth_peers()
            classic_genesis = custom_genesis("some-other-chain").hash()
            results = await asyncio.gather(
                run_eth_handshake(server_peer, make_status()),
                run_eth_handshake(client_peer, make_status(genesis_hash=classic_genesis)),
            )
            assert not results[0].compatible and not results[1].compatible
            server.close()

        asyncio.run(scenario())

    def test_dao_harvest_mainstream(self):
        async def scenario():
            server_peer, client_peer, server = await eth_peers()
            await asyncio.gather(
                run_eth_handshake(server_peer, make_status()),
                run_eth_handshake(client_peer, make_status()),
            )
            chain = SyntheticChain("mainnet", supports_dao_fork=True)

            async def serve_dao_request():
                name, code, payload = await server_peer.read_subprotocol()
                assert (name, code) == ("eth", eth.GET_BLOCK_HEADERS)
                request = eth.GetBlockHeadersMessage.decode(payload)
                headers = chain.get_block_headers(
                    request.origin, request.amount, request.skip, bool(request.reverse)
                )
                await server_peer.send_subprotocol(
                    "eth",
                    eth.BLOCK_HEADERS,
                    eth.BlockHeadersMessage.from_headers(headers).encode(),
                )

            results = await asyncio.gather(
                serve_dao_request(), harvest_dao_check(client_peer)
            )
            side, header = results[1]
            assert side is DaoForkSide.SUPPORTS_FORK
            assert header.number == DAO_FORK_BLOCK
            server.close()

        asyncio.run(scenario())

    def test_dao_harvest_short_chain(self):
        async def scenario():
            server_peer, client_peer, server = await eth_peers()
            await asyncio.gather(
                run_eth_handshake(server_peer, make_status()),
                run_eth_handshake(client_peer, make_status()),
            )

            async def serve_empty():
                await server_peer.read_subprotocol()
                await server_peer.send_subprotocol(
                    "eth",
                    eth.BLOCK_HEADERS,
                    eth.BlockHeadersMessage(headers=[]).encode(),
                )

            results = await asyncio.gather(serve_empty(), harvest_dao_check(client_peer))
            side, header = results[1]
            assert side is DaoForkSide.UNKNOWN
            assert header is None
            server.close()

        asyncio.run(scenario())

    def test_handshake_requires_eth_capability(self):
        async def scenario():
            server_key, client_key = PrivateKey(1), PrivateKey(2)

            async def on_connection(reader, writer):
                session = await accept_session(reader, writer, server_key)
                hello = HelloMessage(
                    version=5,
                    client_id="swarm/v0.3",
                    capabilities=[Capability("bzz", 0)],
                    listen_port=30303,
                    node_id=server_key.public_key.to_bytes(),
                )
                peer = DevP2PPeer(session, hello)
                await peer.handshake()

            server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            session = await open_session("127.0.0.1", port, client_key, server_key.public_key)
            peer = DevP2PPeer(session, make_hello(client_key))
            await peer.handshake()
            with pytest.raises(ProtocolError, match="not negotiated"):
                await run_eth_handshake(peer, make_status())
            server.close()

        asyncio.run(scenario())
