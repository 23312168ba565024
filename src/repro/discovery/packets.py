"""discv4 wire packets: signed UDP datagrams.

Every datagram is ``hash(32) || signature(65) || packet-type(1) || rlp-data``
where ``signature`` is a recoverable ECDSA signature over
``keccak256(type || data)`` and ``hash = keccak256(sig || type || data)``.
The sender's node ID is recovered from the signature — there is no sender
field on the wire.

Packet types: PING (0x01), PONG (0x02), FIND_NODE (0x03), NEIGHBORS (0x04).
All packets carry an expiration timestamp; expired packets are dropped.
"""

from __future__ import annotations

import ipaddress
import time
from typing import NamedTuple, Type

from repro.crypto.keccak import keccak256, keccak256_pair
from repro.crypto.keys import PrivateKey, PublicKey, Signature
from repro.errors import BadPacket, CryptoError, DecodingError, DeserializationError
from repro.rlp import codec
from repro.rlp.sedes import (
    BigEndianInt,
    Binary,
    CountableList,
    ListSedes,
    Serializable,
    big_endian_int,
    binary,
)

PING_TYPE = 0x01
PONG_TYPE = 0x02
FINDNODE_TYPE = 0x03
NEIGHBORS_TYPE = 0x04

#: discv4 protocol version carried in PING.
DISCOVERY_PROTOCOL_VERSION = 4

#: Packets older than this many seconds are rejected.
PACKET_EXPIRATION = 20

#: Max datagram size Geth accepts.
MAX_PACKET_SIZE = 1280

HEAD_SIZE = 32 + 65  # hash + signature

_node_id_sedes = Binary.fixed_length(64)


def encode_endpoint(ip: str, udp_port: int, tcp_port: int) -> list:
    """RLP structure for an endpoint: [ip-bytes, udp, tcp]."""
    packed_ip = ipaddress.ip_address(ip).packed
    return [
        packed_ip,
        big_endian_int.serialize(udp_port),
        big_endian_int.serialize(tcp_port),
    ]


def decode_endpoint(serial: object) -> tuple[str, int, int]:
    """Decode an endpoint structure back to (ip, udp_port, tcp_port)."""
    if not isinstance(serial, list) or len(serial) != 3:
        raise DeserializationError("endpoint must be a 3-element list")
    ip_bytes, udp_raw, tcp_raw = serial
    if not isinstance(ip_bytes, bytes) or len(ip_bytes) not in (4, 16):
        raise DeserializationError("endpoint IP must be 4 or 16 bytes")
    ip = str(ipaddress.ip_address(ip_bytes))
    udp_port = big_endian_int.deserialize(udp_raw)
    tcp_port = big_endian_int.deserialize(tcp_raw)
    if udp_port > 65535 or tcp_port > 65535:
        raise DeserializationError("endpoint port out of range")
    return ip, udp_port, tcp_port


class Endpoint(NamedTuple):
    """A (ip, udp, tcp) address triple as carried in discv4 packets."""

    ip: str
    udp_port: int
    tcp_port: int

    def serialize(self) -> list:
        return encode_endpoint(self.ip, self.udp_port, self.tcp_port)

    @classmethod
    def deserialize(cls, serial: object) -> "Endpoint":
        return cls(*decode_endpoint(serial))


class _EndpointSedes:
    """Sedes adapter for Endpoint fields."""

    def serialize(self, obj: Endpoint) -> list:
        if not isinstance(obj, Endpoint):
            raise DeserializationError("expected Endpoint")
        return obj.serialize()

    def deserialize(self, serial: object) -> Endpoint:
        return Endpoint.deserialize(serial)


_endpoint_sedes = _EndpointSedes()


class NeighborRecord(NamedTuple):
    """One node in a NEIGHBORS response: endpoint plus node ID."""

    ip: str
    udp_port: int
    tcp_port: int
    node_id: bytes

    def serialize(self) -> list:
        return encode_endpoint(self.ip, self.udp_port, self.tcp_port) + [self.node_id]

    @classmethod
    def deserialize(cls, serial: object) -> "NeighborRecord":
        if not isinstance(serial, list) or len(serial) != 4:
            raise DeserializationError("neighbor record must have 4 elements")
        ip, udp_port, tcp_port = decode_endpoint(serial[:3])
        node_id = _node_id_sedes.deserialize(serial[3])
        return cls(ip, udp_port, tcp_port, node_id)


class _NeighborSedes:
    def serialize(self, obj: NeighborRecord) -> list:
        if not isinstance(obj, NeighborRecord):
            raise DeserializationError("expected NeighborRecord")
        return obj.serialize()

    def deserialize(self, serial: object) -> NeighborRecord:
        return NeighborRecord.deserialize(serial)


class PingPacket(Serializable):
    """PING: liveness probe and endpoint proof initiation."""

    packet_type = PING_TYPE
    allow_extra_fields = True  # EIP-868 appends an ENR sequence number
    fields = [
        ("version", big_endian_int),
        ("sender", _endpoint_sedes),
        ("recipient", _endpoint_sedes),
        ("expiration", big_endian_int),
    ]


class PongPacket(Serializable):
    """PONG: echoes the PING's packet hash to bind the reply."""

    packet_type = PONG_TYPE
    allow_extra_fields = True
    fields = [
        ("recipient", _endpoint_sedes),
        ("ping_hash", Binary.fixed_length(32)),
        ("expiration", big_endian_int),
    ]


class FindNodePacket(Serializable):
    """FIND_NODE: ask for the k closest nodes to ``target`` (a node ID)."""

    packet_type = FINDNODE_TYPE
    allow_extra_fields = True
    fields = [
        ("target", _node_id_sedes),
        ("expiration", big_endian_int),
    ]


class NeighborsPacket(Serializable):
    """NEIGHBORS: the answer to FIND_NODE."""

    packet_type = NEIGHBORS_TYPE
    allow_extra_fields = True
    fields = [
        ("nodes", CountableList(_NeighborSedes())),
        ("expiration", big_endian_int),
    ]


PACKET_CLASSES: dict[int, Type[Serializable]] = {
    PING_TYPE: PingPacket,
    PONG_TYPE: PongPacket,
    FINDNODE_TYPE: FindNodePacket,
    NEIGHBORS_TYPE: NeighborsPacket,
}


def default_expiration(now: float | None = None) -> int:
    """Expiry timestamp for an outgoing packet."""
    return int(now if now is not None else time.time()) + PACKET_EXPIRATION


class DecodedPacket(NamedTuple):
    """A validated incoming datagram."""

    packet: Serializable
    sender_public_key: PublicKey
    packet_hash: bytes

    @property
    def sender_node_id(self) -> bytes:
        return self.sender_public_key.to_bytes()


def encode_packet(packet: Serializable, private_key: PrivateKey) -> bytes:
    """Sign and frame ``packet`` as a discv4 datagram."""
    packet_type = getattr(type(packet), "packet_type", None)
    if packet_type is None:
        raise BadPacket(f"{type(packet).__name__} is not a discovery packet")
    body = bytes([packet_type]) + codec.encode(packet.serialize_rlp())
    signature = private_key.sign(keccak256(body)).to_bytes()
    envelope = signature + body
    packet_hash = keccak256(envelope)
    datagram = packet_hash + envelope
    if len(datagram) > MAX_PACKET_SIZE:
        raise BadPacket(f"datagram too large: {len(datagram)} bytes")
    return datagram


def decode_packet(
    datagram: bytes, now: float | None = None, sender: PublicKey | None = None
) -> DecodedPacket:
    """Validate and decode a datagram; raises :class:`BadPacket` on any fault.

    Checks, in order: size, hash integrity, signature recovery, known type,
    RLP shape, expiration.  The envelope hash and the signed body's digest
    are computed together, in one two-state sponge pass.  ``sender`` is the
    key the caller expects signed it -- a hint to the recovery
    (:meth:`Signature.recover`), which checks it before recovering: the
    decoded sender is the signer either way.
    """
    if len(datagram) > MAX_PACKET_SIZE:
        raise BadPacket(f"oversized datagram: {len(datagram)} bytes")
    if len(datagram) < HEAD_SIZE + 1:
        raise BadPacket(f"truncated datagram: {len(datagram)} bytes")
    packet_hash = datagram[:32]
    envelope = datagram[32:]
    body = envelope[65:]
    envelope_hash, body_hash = keccak256_pair(envelope, body)
    if envelope_hash != packet_hash:
        raise BadPacket("packet hash mismatch")
    try:
        signature = Signature.from_bytes(envelope[:65])
        signer = signature.recover(body_hash, sender)
    except CryptoError as exc:
        raise BadPacket(f"signature recovery failed: {exc}") from exc
    packet_type = body[0]
    packet_class = PACKET_CLASSES.get(packet_type)
    if packet_class is None:
        raise BadPacket(f"unknown packet type {packet_type:#x}")
    try:
        packet = packet_class.deserialize_rlp(codec.decode(body[1:], strict=False))
    except (DecodingError, DeserializationError, ValueError) as exc:
        raise BadPacket(f"malformed {packet_class.__name__}: {exc}") from exc
    expiration = getattr(packet, "expiration")
    current = now if now is not None else time.time()
    if expiration < current:
        raise BadPacket(f"expired packet (expiration {expiration} < now {current:.0f})")
    return DecodedPacket(packet=packet, sender_public_key=signer, packet_hash=packet_hash)
