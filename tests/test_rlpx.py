"""RLPx handshake + framing tests: unit level and over real TCP."""

import asyncio
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import secp256k1
from repro.crypto.keccak import Keccak256
from repro.crypto.keys import PrivateKey
from repro.errors import FramingError, HandshakeError
from repro.rlp import codec
from repro.rlpx.frame import FrameCodec, Secrets
from repro.rlpx.handshake import (
    _seal,
    derive_secrets,
    handshake_message_size,
    make_ack,
    make_auth,
    read_ack,
    read_auth,
)
from repro.rlpx.session import accept_session, open_session

INITIATOR = PrivateKey(0x1111)
RESPONDER = PrivateKey(0x2222)

#: node-ID fields a hostile peer can put in an auth or ack body
HOSTILE_NODE_IDS = [
    [b"\x01"] * 64,  # a 64-item list, not 64 bytes
    INITIATOR.public_key.to_bytes()[:63],
    b"\x01" * 64,  # off the curve
    b"",
]
HOSTILE_IDS = ["list", "63-bytes", "off-curve", "empty"]


def do_handshake_in_memory():
    """Run both handshake halves without sockets; return paired secrets."""
    ephemeral_i = PrivateKey(0x3333)
    nonce_i = bytes(range(32))
    auth = make_auth(INITIATOR, RESPONDER.public_key, ephemeral_i, nonce_i)
    got_initiator, got_ephemeral_i, got_nonce_i, auth_wire = read_auth(RESPONDER, auth)
    assert got_initiator == INITIATOR.public_key
    assert got_ephemeral_i == ephemeral_i.public_key
    assert got_nonce_i == nonce_i
    ephemeral_r = PrivateKey(0x4444)
    nonce_r = bytes(range(32, 64))
    ack = make_ack(INITIATOR.public_key, ephemeral_r, nonce_r)
    got_ephemeral_r, got_nonce_r, ack_wire = read_ack(INITIATOR, ack)
    assert got_ephemeral_r == ephemeral_r.public_key
    initiator_secrets = derive_secrets(
        True, ephemeral_i, got_ephemeral_r, nonce_i, got_nonce_r, auth_wire, ack_wire
    )
    responder_secrets = derive_secrets(
        False, ephemeral_r, got_ephemeral_i, got_nonce_i, nonce_r, auth_wire, ack_wire
    )
    return initiator_secrets, responder_secrets


class TestHandshakeMessages:
    def test_auth_ack_roundtrip_and_secret_agreement(self):
        initiator_secrets, responder_secrets = do_handshake_in_memory()
        assert initiator_secrets.aes_secret == responder_secrets.aes_secret
        assert initiator_secrets.mac_secret == responder_secrets.mac_secret
        # one side's egress state equals the other's ingress state
        assert (
            initiator_secrets.egress_mac.digest()
            == responder_secrets.ingress_mac.digest()
        )
        assert (
            initiator_secrets.ingress_mac.digest()
            == responder_secrets.egress_mac.digest()
        )

    def test_auth_messages_differ_between_runs(self):
        """Random padding and nonces make every auth unique."""
        a = make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))
        b = make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))
        assert a != b

    def test_auth_to_wrong_recipient_fails(self):
        auth = make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))
        with pytest.raises(HandshakeError):
            read_auth(PrivateKey(0x9999), auth)

    def test_tampered_auth_fails(self):
        auth = bytearray(
            make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))
        )
        auth[-1] ^= 0x01
        with pytest.raises(HandshakeError):
            read_auth(RESPONDER, bytes(auth))

    def test_truncated_auth_fails(self):
        auth = make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))
        with pytest.raises(HandshakeError):
            read_auth(RESPONDER, auth[: len(auth) // 2])

    def test_size_prefix(self):
        auth = make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))
        assert handshake_message_size(auth[:2]) == len(auth)

    @pytest.mark.parametrize("node_id", HOSTILE_NODE_IDS, ids=HOSTILE_IDS)
    def test_hostile_auth_initiator_id_is_a_handshake_error(self, node_id):
        signature = PrivateKey(3).sign(bytes(32)).to_bytes()
        auth = _seal(codec.encode([signature, node_id, bytes(32), 4]), RESPONDER.public_key)
        with pytest.raises(HandshakeError, match="initiator public key"):
            read_auth(RESPONDER, auth)

    @pytest.mark.parametrize("node_id", HOSTILE_NODE_IDS, ids=HOSTILE_IDS)
    def test_hostile_ack_ephemeral_id_is_a_handshake_error(self, node_id):
        ack = _seal(codec.encode([node_id, bytes(32), 4]), INITIATOR.public_key)
        with pytest.raises(HandshakeError, match="responder ephemeral key"):
            read_ack(INITIATOR, ack)

    def test_unrecoverable_auth_signature_is_a_handshake_error(self):
        signature = bytes(64) + b"\x00"  # r = s = 0
        body = codec.encode([signature, INITIATOR.public_key.to_bytes(), bytes(32), 4])
        with pytest.raises(HandshakeError, match="cannot recover"):
            read_auth(RESPONDER, _seal(body, RESPONDER.public_key))

    def test_a_bug_in_the_arithmetic_is_not_a_peer_fault(self, monkeypatch):
        """Only crypto errors are the peer's: a slip in the multiply must
        crash the handshake, not be journaled as a bad auth."""
        auth = make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), os.urandom(32))

        def broken(point, scalar):
            raise TypeError("slip in the multiply")

        monkeypatch.setattr(secp256k1, "_j_multiply", broken)
        with pytest.raises(TypeError, match="slip"):
            read_auth(RESPONDER, auth)

    def test_bad_nonce_length(self):
        with pytest.raises(HandshakeError):
            make_auth(INITIATOR, RESPONDER.public_key, PrivateKey(3), b"short")
        with pytest.raises(HandshakeError):
            make_ack(INITIATOR.public_key, PrivateKey(3), b"short")


class TestFrameCodec:
    def make_pair(self):
        initiator_secrets, responder_secrets = do_handshake_in_memory()
        return FrameCodec(initiator_secrets), FrameCodec(responder_secrets)

    def test_roundtrip(self):
        sender, receiver = self.make_pair()
        frame = sender.encode_frame(0x10, b"payload bytes")
        assert receiver.decode_frame(frame) == (0x10, b"payload bytes")

    def test_roundtrip_empty_payload(self):
        sender, receiver = self.make_pair()
        frame = sender.encode_frame(0x02, b"")
        assert receiver.decode_frame(frame) == (0x02, b"")

    def test_multiple_frames_chain(self):
        """MACs chain across frames: order matters, replay breaks."""
        sender, receiver = self.make_pair()
        frames = [sender.encode_frame(i, bytes([i]) * (i * 7)) for i in range(1, 6)]
        for i, frame in enumerate(frames, start=1):
            assert receiver.decode_frame(frame) == (i, bytes([i]) * (i * 7))

    def test_out_of_order_frame_rejected(self):
        sender, receiver = self.make_pair()
        first = sender.encode_frame(1, b"first")
        second = sender.encode_frame(2, b"second")
        with pytest.raises(FramingError):
            receiver.decode_frame(second)

    def test_replay_rejected(self):
        sender, receiver = self.make_pair()
        frame = sender.encode_frame(1, b"data")
        receiver.decode_frame(frame)
        with pytest.raises(FramingError):
            receiver.decode_frame(frame)

    def test_header_tamper_rejected(self):
        sender, receiver = self.make_pair()
        frame = bytearray(sender.encode_frame(1, b"data"))
        frame[0] ^= 0x01
        with pytest.raises(FramingError, match="header MAC"):
            receiver.decode_frame(bytes(frame))

    def test_body_tamper_rejected(self):
        sender, receiver = self.make_pair()
        frame = bytearray(sender.encode_frame(1, b"data"))
        frame[40] ^= 0x01
        with pytest.raises(FramingError, match="body MAC"):
            receiver.decode_frame(bytes(frame))

    def test_large_payload(self):
        sender, receiver = self.make_pair()
        payload = os.urandom(100_000)
        frame = sender.encode_frame(0x13, payload)
        assert receiver.decode_frame(frame) == (0x13, payload)

    def test_oversize_rejected(self):
        sender, _ = self.make_pair()
        with pytest.raises(FramingError):
            sender.encode_frame(0, b"\x00" * (1 << 24))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=200), st.binary(max_size=500))
    def test_roundtrip_property(self, code, payload):
        sender, receiver = self.make_pair()
        assert receiver.decode_frame(sender.encode_frame(code, payload)) == (
            code,
            payload,
        )


class TestSessionOverTCP:
    def test_full_session(self):
        async def scenario():
            server_done = asyncio.Event()

            async def on_connection(reader, writer):
                session = await accept_session(reader, writer, RESPONDER)
                assert session.remote_node_id == INITIATOR.public_key.to_bytes()
                code, payload = await session.read_message()
                await session.send_message(code + 1, payload[::-1])
                server_done.set()

            server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            session = await open_session(
                "127.0.0.1", port, INITIATOR, RESPONDER.public_key
            )
            assert session.remote_node_id == RESPONDER.public_key.to_bytes()
            assert session.is_initiator
            await session.send_message(0x42, b"ping-payload")
            code, payload = await session.read_message()
            assert (code, payload) == (0x43, b"daolyap-gnip")
            await asyncio.wait_for(server_done.wait(), 5)
            assert session.bytes_sent > 0 and session.bytes_received > 0
            session.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_dial_refused(self):
        async def scenario():
            with pytest.raises(HandshakeError, match="dial"):
                await open_session(
                    "127.0.0.1", 1, INITIATOR, RESPONDER.public_key, dial_timeout=2
                )

        asyncio.run(scenario())

    def test_wrong_remote_key_fails_handshake(self):
        async def scenario():
            async def on_connection(reader, writer):
                try:
                    await accept_session(reader, writer, RESPONDER)
                except HandshakeError:
                    pass

            server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            with pytest.raises(HandshakeError):
                await open_session(
                    "127.0.0.1", port, INITIATOR, PrivateKey(0xBAD).public_key
                )
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())
