"""DEVp2p message, capability-negotiation, and peer state-machine tests."""

import asyncio

import pytest

from repro.crypto.keys import PrivateKey
from repro.devp2p.capabilities import (
    match_capabilities,
    offset_table,
    protocol_length,
    route_code,
)
from repro.devp2p.messages import (
    BASE_PROTOCOL_LENGTH,
    Capability,
    DisconnectMessage,
    DisconnectReason,
    HelloMessage,
    PING_CODE,
    PingMessage,
    PongMessage,
)
from repro.devp2p.peer import DevP2PPeer
from repro.errors import PeerDisconnected, ProtocolError
from repro.rlp import codec
from repro.rlpx.session import accept_session, open_session


def make_hello(client_id="Geth/v1.7.3", caps=None, node_id=b"\x01" * 64):
    if caps is None:
        caps = [Capability("eth", 62), Capability("eth", 63)]
    return HelloMessage(
        version=5,
        client_id=client_id,
        capabilities=caps,
        listen_port=30303,
        node_id=node_id,
    )


class TestHelloMessage:
    def test_roundtrip(self):
        hello = make_hello()
        assert HelloMessage.decode(hello.encode()) == hello

    def test_supports(self):
        hello = make_hello(caps=[Capability("eth", 63), Capability("bzz", 0)])
        assert hello.supports("eth")
        assert hello.supports("eth", 63)
        assert not hello.supports("eth", 62)
        assert not hello.supports("shh")

    def test_extra_fields_tolerated(self):
        serial = make_hello().serialize_rlp() + [b"extra"]
        decoded = HelloMessage.deserialize_rlp(serial)
        assert decoded.client_id == "Geth/v1.7.3"

    def test_unicode_client_id(self):
        hello = make_hello(client_id="Gethはやい/v1.8.0")
        assert HelloMessage.decode(hello.encode()).client_id == "Gethはやい/v1.8.0"


class TestDisconnectMessage:
    def test_roundtrip(self):
        message = DisconnectMessage(reason=int(DisconnectReason.TOO_MANY_PEERS))
        decoded = DisconnectMessage.decode(message.encode())
        assert decoded.reason_enum is DisconnectReason.TOO_MANY_PEERS

    def test_label_matches_paper_table1(self):
        assert DisconnectReason.TOO_MANY_PEERS.label == "Too many peers"
        assert DisconnectReason.SUBPROTOCOL_ERROR.label == "Subprotocol error"
        assert DisconnectReason.USELESS_PEER.label == "Useless peer"
        assert DisconnectReason.READ_TIMEOUT.label == "Read timeout"
        assert DisconnectReason.CLIENT_QUITTING.label == "Client quitting"
        assert DisconnectReason.ALREADY_CONNECTED.label == "Already connected"
        assert DisconnectReason.DISCONNECT_REQUESTED.label == "Disconnect requested"

    def test_unknown_reason_is_none(self):
        """Parity treats codes beyond 0x0b as Unknown (paper §3 obs. 4)."""
        message = DisconnectMessage(reason=0x0C)
        assert message.reason_enum is None

    def test_bare_integer_tolerated(self):
        decoded = DisconnectMessage.decode(codec.encode(4))
        assert decoded.reason_enum is DisconnectReason.TOO_MANY_PEERS

    def test_empty_list_tolerated(self):
        decoded = DisconnectMessage.decode(codec.encode([]))
        assert decoded.reason_enum is DisconnectReason.DISCONNECT_REQUESTED


class TestCapabilityNegotiation:
    def test_highest_common_version(self):
        ours = [Capability("eth", 62), Capability("eth", 63)]
        theirs = [Capability("eth", 62), Capability("eth", 63), Capability("les", 2)]
        assert match_capabilities(ours, theirs) == [Capability("eth", 63)]

    def test_no_overlap(self):
        assert match_capabilities([Capability("eth", 63)], [Capability("bzz", 0)]) == []

    def test_alphabetical_order(self):
        ours = [Capability("shh", 6), Capability("bzz", 0), Capability("eth", 63)]
        shared = match_capabilities(ours, ours)
        assert [cap.name for cap in shared] == ["bzz", "eth", "shh"]

    def test_offsets_start_at_base_length(self):
        table = offset_table([Capability("eth", 63)])
        assert table[0].offset == BASE_PROTOCOL_LENGTH

    def test_offsets_stack(self):
        table = offset_table([Capability("bzz", 0), Capability("eth", 63)])
        assert table[0].offset == 0x10
        assert table[1].offset == 0x10 + protocol_length(Capability("bzz", 0))

    def test_route_code(self):
        table = offset_table([Capability("eth", 63)])
        entry = route_code(table, 0x10)
        assert entry is not None and entry.capability.name == "eth"
        assert route_code(table, 0x10 + 17) is None

    def test_eth63_occupies_17_codes(self):
        assert protocol_length(Capability("eth", 63)) == 17
        assert protocol_length(Capability("eth", 62)) == 8


async def connected_peers(
    server_hello=None, client_hello=None
) -> tuple[DevP2PPeer, DevP2PPeer, asyncio.AbstractServer]:
    """Spin up a localhost TCP pair wrapped in DevP2PPeer objects."""
    server_key, client_key = PrivateKey(0xAAA), PrivateKey(0xBBB)
    accepted: asyncio.Future = asyncio.get_running_loop().create_future()

    async def on_connection(reader, writer):
        session = await accept_session(reader, writer, server_key)
        accepted.set_result(session)

    server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client_session = await open_session(
        "127.0.0.1", port, client_key, server_key.public_key
    )
    server_session = await accepted
    server_peer = DevP2PPeer(server_session, server_hello or make_hello(node_id=server_key.public_key.to_bytes()))
    client_peer = DevP2PPeer(client_session, client_hello or make_hello(node_id=client_key.public_key.to_bytes()))
    return server_peer, client_peer, server


class TestPeerStateMachine:
    def test_hello_exchange(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()
            results = await asyncio.gather(
                server_peer.handshake(), client_peer.handshake()
            )
            assert results[0].client_id == "Geth/v1.7.3"
            assert client_peer.negotiated("eth") is not None
            server.close()

        asyncio.run(scenario())

    def test_disconnect_instead_of_hello(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()

            async def server_side():
                await server_peer.session.send_message(
                    0x01,
                    DisconnectMessage(reason=int(DisconnectReason.TOO_MANY_PEERS)).encode(),
                )

            with pytest.raises(PeerDisconnected) as excinfo:
                await asyncio.gather(server_side(), client_peer.handshake())
            assert excinfo.value.reason is DisconnectReason.TOO_MANY_PEERS
            assert client_peer.disconnect_reason == 0x04
            server.close()

        asyncio.run(scenario())

    def test_subprotocol_roundtrip(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()
            await asyncio.gather(server_peer.handshake(), client_peer.handshake())
            await client_peer.send_subprotocol("eth", 0x00, codec.encode([b"status"]))
            name, code, payload = await server_peer.read_subprotocol()
            assert (name, code) == ("eth", 0x00)
            assert codec.decode(payload) == [b"status"]
            server.close()

        asyncio.run(scenario())

    def test_ping_answered_transparently(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()
            await asyncio.gather(server_peer.handshake(), client_peer.handshake())
            await client_peer.session.send_message(PING_CODE, codec.encode([]))
            await client_peer.send_subprotocol("eth", 0x02, codec.encode([]))
            # server sees only the subprotocol message; the PING was answered
            name, code, _ = await server_peer.read_subprotocol()
            assert (name, code) == ("eth", 0x02)
            server.close()

        asyncio.run(scenario())

    def test_unnegotiated_subprotocol_rejected(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()
            await asyncio.gather(server_peer.handshake(), client_peer.handshake())
            with pytest.raises(ProtocolError):
                await client_peer.send_subprotocol("shh", 0, b"")
            server.close()

        asyncio.run(scenario())

    def test_out_of_range_code_rejected(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()
            await asyncio.gather(server_peer.handshake(), client_peer.handshake())
            with pytest.raises(ProtocolError):
                await client_peer.send_subprotocol("eth", 40, b"")
            server.close()

        asyncio.run(scenario())

    def test_graceful_disconnect(self):
        async def scenario():
            server_peer, client_peer, server = await connected_peers()
            await asyncio.gather(server_peer.handshake(), client_peer.handshake())
            await client_peer.disconnect(DisconnectReason.CLIENT_QUITTING)
            with pytest.raises(PeerDisconnected) as excinfo:
                await server_peer.read_subprotocol()
            assert excinfo.value.reason is DisconnectReason.CLIENT_QUITTING
            server.close()

        asyncio.run(scenario())
