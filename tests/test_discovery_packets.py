"""discv4 packet encode/decode/sign/recover tests."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import secp256k1 as ec
from repro.crypto.keys import PrivateKey
from repro.discovery.protocol import MAX_NEIGHBORS_PER_PACKET as MAX_NEIGHBORS
from repro.discovery.packets import (
    Endpoint,
    FindNodePacket,
    NeighborRecord,
    NeighborsPacket,
    PingPacket,
    PongPacket,
    decode_endpoint,
    decode_packet,
    default_expiration,
    encode_endpoint,
    encode_packet,
)
from repro.errors import BadPacket

KEY = PrivateKey(0x1234567)
OTHER_KEY = PrivateKey(0x89ABCDE)


def make_ping(expiration=None) -> PingPacket:
    return PingPacket(
        version=4,
        sender=Endpoint("10.0.0.1", 30301, 30303),
        recipient=Endpoint("10.0.0.2", 30301, 30303),
        expiration=expiration if expiration is not None else default_expiration(),
    )


class TestEndpointCodec:
    def test_ipv4_roundtrip(self):
        serial = encode_endpoint("192.168.1.5", 30301, 30303)
        assert decode_endpoint(serial) == ("192.168.1.5", 30301, 30303)

    def test_ipv6_roundtrip(self):
        serial = encode_endpoint("2001:db8::1", 1, 2)
        assert decode_endpoint(serial) == ("2001:db8::1", 1, 2)

    def test_endpoint_namedtuple(self):
        endpoint = Endpoint("1.2.3.4", 5, 6)
        assert Endpoint.deserialize(endpoint.serialize()) == endpoint

    def test_bad_ip_length(self):
        from repro.errors import DeserializationError

        with pytest.raises(DeserializationError):
            decode_endpoint([b"\x01\x02", b"\x01", b"\x01"])

    def test_port_out_of_range(self):
        from repro.errors import DeserializationError

        with pytest.raises(DeserializationError):
            decode_endpoint([b"\x01\x02\x03\x04", b"\xff\xff\xff", b"\x01"])


class TestPacketRoundtrips:
    def test_ping(self):
        ping = make_ping()
        decoded = decode_packet(encode_packet(ping, KEY))
        assert decoded.packet == ping
        assert decoded.sender_public_key == KEY.public_key
        assert decoded.sender_node_id == KEY.public_key.to_bytes()

    def test_pong(self):
        pong = PongPacket(
            recipient=Endpoint("10.0.0.2", 30301, 30303),
            ping_hash=b"\xaa" * 32,
            expiration=default_expiration(),
        )
        decoded = decode_packet(encode_packet(pong, KEY))
        assert decoded.packet == pong

    def test_findnode(self):
        find = FindNodePacket(
            target=OTHER_KEY.public_key.to_bytes(), expiration=default_expiration()
        )
        decoded = decode_packet(encode_packet(find, KEY))
        assert decoded.packet == find

    def test_neighbors(self):
        records = [
            NeighborRecord("10.0.0.3", 30303, 30303, PrivateKey(i + 1).public_key.to_bytes())
            for i in range(5)
        ]
        neighbors = NeighborsPacket(nodes=records, expiration=default_expiration())
        decoded = decode_packet(encode_packet(neighbors, KEY))
        assert list(decoded.packet.nodes) == records

    def test_max_neighbors_fits_max_datagram(self):
        records = [
            NeighborRecord("10.0.0.3", 30303, 30303, PrivateKey(i + 1).public_key.to_bytes())
            for i in range(MAX_NEIGHBORS)
        ]
        neighbors = NeighborsPacket(nodes=records, expiration=default_expiration())
        datagram = encode_packet(neighbors, KEY)
        assert len(datagram) <= 1280


class TestPacketValidation:
    def test_hash_tamper_rejected(self):
        datagram = bytearray(encode_packet(make_ping(), KEY))
        datagram[0] ^= 0x01
        with pytest.raises(BadPacket, match="hash"):
            decode_packet(bytes(datagram))

    def test_body_tamper_rejected(self):
        datagram = bytearray(encode_packet(make_ping(), KEY))
        datagram[-1] ^= 0x01
        with pytest.raises(BadPacket, match="hash"):
            decode_packet(bytes(datagram))

    def test_signature_tamper_changes_sender(self):
        """Flipping signature bits (with a fixed-up hash) must not recover
        the original sender."""
        from repro.crypto.keccak import keccak256

        datagram = bytearray(encode_packet(make_ping(), KEY))
        datagram[40] ^= 0x01  # inside the signature
        datagram[:32] = keccak256(bytes(datagram[32:]))
        try:
            decoded = decode_packet(bytes(datagram))
            assert decoded.sender_public_key != KEY.public_key
        except BadPacket:
            pass  # recovery may legitimately fail outright

    @pytest.mark.parametrize(
        "signature",
        [
            bytes(64) + b"\x00",  # r = s = 0
            (1).to_bytes(32, "big") * 2 + b"\x09",  # recovery id out of range
            (5).to_bytes(32, "big") * 2 + b"\x00",  # no curve point has x = 5
            (ec.P - ec.N).to_bytes(32, "big") * 2 + b"\x02",  # r + N >= P
        ],
        ids=["zero", "v9", "no-point", "high-x"],
    )
    def test_unrecoverable_signature_rejected(self, signature):
        from repro.crypto.keccak import keccak256

        envelope = signature + encode_packet(make_ping(), KEY)[97:]
        with pytest.raises(BadPacket, match="signature recovery failed"):
            decode_packet(keccak256(envelope) + envelope)

    def test_expired_packet_rejected(self):
        stale = make_ping(expiration=int(time.time()) - 5)
        with pytest.raises(BadPacket, match="expired"):
            decode_packet(encode_packet(stale, KEY))

    def test_truncated_rejected(self):
        datagram = encode_packet(make_ping(), KEY)
        with pytest.raises(BadPacket):
            decode_packet(datagram[:50])

    def test_oversized_rejected(self):
        with pytest.raises(BadPacket, match="oversized"):
            decode_packet(b"\x00" * 1281)

    def test_unknown_type_rejected(self):
        from repro.crypto.keccak import keccak256
        from repro.rlp import codec

        body = bytes([0x09]) + codec.encode([b"x"])
        signature = KEY.sign(keccak256(body)).to_bytes()
        envelope = signature + body
        datagram = keccak256(envelope) + envelope
        with pytest.raises(BadPacket, match="unknown packet type"):
            decode_packet(datagram)

    def test_malformed_rlp_rejected(self):
        from repro.crypto.keccak import keccak256

        body = bytes([0x01]) + b"\xf9\xff"  # truncated RLP
        signature = KEY.sign(keccak256(body)).to_bytes()
        envelope = signature + body
        datagram = keccak256(envelope) + envelope
        with pytest.raises(BadPacket, match="malformed"):
            decode_packet(datagram)

    def test_non_packet_class_rejected_on_encode(self):
        with pytest.raises(BadPacket):
            encode_packet(object(), KEY)  # type: ignore[arg-type]

    def test_extra_fields_tolerated(self):
        """EIP-868 appends an ENR seq to PING; must decode fine."""
        from repro.crypto.keccak import keccak256
        from repro.rlp import codec

        ping = make_ping()
        serial = ping.serialize_rlp() + [b"\x07"]
        body = bytes([0x01]) + codec.encode(serial)
        signature = KEY.sign(keccak256(body)).to_bytes()
        envelope = signature + body
        datagram = keccak256(envelope) + envelope
        decoded = decode_packet(datagram)
        assert decoded.packet == ping


def _damaged_datagram_cases():
    """Real PING / FIND_NODE / NEIGHBORS datagrams by ``KEY``, for damage."""
    far = 1 << 40  # decoded at ``now=0``: damage, not age, decides
    records = [
        NeighborRecord("10.0.0.3", 30303, 30303, PrivateKey(i + 1).public_key.to_bytes())
        for i in range(3)
    ]
    return {
        "ping": encode_packet(make_ping(expiration=far), KEY),
        "findnode": encode_packet(
            FindNodePacket(target=OTHER_KEY.public_key.to_bytes(), expiration=far), KEY
        ),
        "neighbors": encode_packet(NeighborsPacket(nodes=records, expiration=far), KEY),
    }


DAMAGE_CASES = _damaged_datagram_cases()


def _decode_outcome(datagram, sender=None):
    try:
        return decode_packet(datagram, now=0, sender=sender)
    except BadPacket:
        return BadPacket


class TestHintedDecode:
    """``decode_packet(..., sender=K)`` is ``decode_packet(...)``: the hint
    only decides which path recovery takes, never the sender it reports."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(DAMAGE_CASES)),
        st.sampled_from(["flip", "flip, hash fixed", "truncate", "truncate, hash fixed"]),
        st.integers(min_value=0, max_value=1279),
        st.integers(min_value=1, max_value=255),
    )
    def test_damaged_datagram_decodes_the_same_with_any_hint(
        self, kind, damage, position, mask
    ):
        from repro.crypto.keccak import keccak256

        datagram = bytearray(DAMAGE_CASES[kind])
        if damage.startswith("flip"):
            datagram[position % len(datagram)] ^= mask
        else:
            del datagram[position % len(datagram) :]
        if damage.endswith("hash fixed") and len(datagram) > 32:
            datagram[:32] = keccak256(bytes(datagram[32:]))
        datagram = bytes(datagram)
        plain = _decode_outcome(datagram)
        for hint in (KEY.public_key, OTHER_KEY.public_key):
            assert _decode_outcome(datagram, hint) == plain

    @pytest.mark.parametrize("kind", sorted(DAMAGE_CASES))
    def test_intact_datagram_decodes_to_the_hinted_signer(self, kind):
        plain = decode_packet(DAMAGE_CASES[kind], now=0)
        assert plain.sender_public_key == KEY.public_key
        for hint in (KEY.public_key, OTHER_KEY.public_key):
            assert decode_packet(DAMAGE_CASES[kind], now=0, sender=hint) == plain
        hinted = decode_packet(DAMAGE_CASES[kind], now=0, sender=KEY.public_key)
        assert hinted.sender_public_key is KEY.public_key
