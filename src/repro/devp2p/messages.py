"""DEVp2p base-protocol messages.

The base protocol owns message codes 0x00-0x0f; negotiated subprotocols are
stacked above 0x10 (see :mod:`repro.devp2p.capabilities`).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import DeserializationError
from repro.rlp.sedes import (
    Serializable,
    Sedes,
    big_endian_int,
    binary,
    text,
)

HELLO_CODE = 0x00
DISCONNECT_CODE = 0x01
PING_CODE = 0x02
PONG_CODE = 0x03

#: First message code available to negotiated subprotocols.
BASE_PROTOCOL_LENGTH = 0x10

#: DEVp2p protocol version spoken by Geth 1.7.x (the NodeFinder base).
DEVP2P_VERSION = 5


class DisconnectReason(enum.IntEnum):
    """DEVp2p disconnect reason codes (paper Table 1 uses these labels)."""

    DISCONNECT_REQUESTED = 0x00
    TCP_ERROR = 0x01
    BREACH_OF_PROTOCOL = 0x02
    USELESS_PEER = 0x03
    TOO_MANY_PEERS = 0x04
    ALREADY_CONNECTED = 0x05
    INCOMPATIBLE_VERSION = 0x06
    NULL_NODE_IDENTITY = 0x07
    CLIENT_QUITTING = 0x08
    UNEXPECTED_IDENTITY = 0x09
    SELF_CONNECTION = 0x0A
    READ_TIMEOUT = 0x0B
    SUBPROTOCOL_ERROR = 0x10

    @property
    def label(self) -> str:
        """Human-readable label matching the paper's Table 1 rows."""
        return _REASON_LABELS[self]


_REASON_LABELS = {
    DisconnectReason.DISCONNECT_REQUESTED: "Disconnect requested",
    DisconnectReason.TCP_ERROR: "TCP sub-system error",
    DisconnectReason.BREACH_OF_PROTOCOL: "Breach of protocol",
    DisconnectReason.USELESS_PEER: "Useless peer",
    DisconnectReason.TOO_MANY_PEERS: "Too many peers",
    DisconnectReason.ALREADY_CONNECTED: "Already connected",
    DisconnectReason.INCOMPATIBLE_VERSION: "Incompatible P2P version",
    DisconnectReason.NULL_NODE_IDENTITY: "Null node identity",
    DisconnectReason.CLIENT_QUITTING: "Client quitting",
    DisconnectReason.UNEXPECTED_IDENTITY: "Unexpected identity",
    DisconnectReason.SELF_CONNECTION: "Connected to self",
    DisconnectReason.READ_TIMEOUT: "Read timeout",
    DisconnectReason.SUBPROTOCOL_ERROR: "Subprotocol error",
}


class Capability(NamedTuple):
    """A (protocol-name, version) pair advertised in HELLO."""

    name: str
    version: int

    def serialize(self) -> list:
        return [text.serialize(self.name), big_endian_int.serialize(self.version)]

    @classmethod
    def deserialize(cls, serial: object) -> "Capability":
        if not isinstance(serial, list) or len(serial) != 2:
            raise DeserializationError("capability must be a [name, version] pair")
        return cls(text.deserialize(serial[0]), big_endian_int.deserialize(serial[1]))


class _CapabilityListSedes(Sedes):
    def serialize(self, obj: object) -> list:
        if not isinstance(obj, (list, tuple)):
            raise DeserializationError("expected a list of capabilities")
        return [cap.serialize() for cap in obj]

    def deserialize(self, serial: object) -> tuple:
        if not isinstance(serial, list):
            raise DeserializationError("expected RLP list of capabilities")
        return tuple(Capability.deserialize(item) for item in serial)


class HelloMessage(Serializable):
    """HELLO: protocol version, client name, capabilities, port, node ID.

    The ``listen_port`` field is de facto ignored by clients (paper §2.2
    footnote) — port information comes from the RLPx layer.
    """

    code = HELLO_CODE
    allow_extra_fields = True
    fields = [
        ("version", big_endian_int),
        ("client_id", text),
        ("capabilities", _CapabilityListSedes()),
        ("listen_port", big_endian_int),
        ("node_id", binary),
    ]

    def supports(self, name: str, version: int | None = None) -> bool:
        return any(
            cap.name == name and (version is None or cap.version == version)
            for cap in self.capabilities
        )


class DisconnectMessage(Serializable):
    """DISCONNECT with an optional reason code."""

    code = DISCONNECT_CODE
    fields = [("reason", big_endian_int)]

    @property
    def reason_enum(self) -> DisconnectReason | None:
        """The typed reason, or None for codes Parity calls "Unknown"."""
        try:
            return DisconnectReason(self.reason)
        except ValueError:
            return None

    @classmethod
    def deserialize_rlp(cls, serial: object) -> "DisconnectMessage":
        # Geth tolerates a bare integer as well as the canonical [reason].
        if isinstance(serial, bytes):
            return cls(reason=int.from_bytes(serial, "big"))
        if isinstance(serial, list) and not serial:
            return cls(reason=DisconnectReason.DISCONNECT_REQUESTED.value)
        return super().deserialize_rlp(serial)  # type: ignore[return-value]


class PingMessage(Serializable):
    """DEVp2p-level keepalive probe (distinct from the RLPx UDP PING)."""

    code = PING_CODE
    fields = ()


class PongMessage(Serializable):
    """Reply to :class:`PingMessage`."""

    code = PONG_CODE
    fields = ()
