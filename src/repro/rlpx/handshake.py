"""The RLPx auth/ack cryptographic handshake (EIP-8 format).

Message flow (initiator dials responder):

* **auth** = ECIES_encrypt(responder_pubkey,
  RLP([signature, initiator_pubkey, initiator_nonce, version]) || padding),
  prefixed by a 2-byte size that is also the ECIES MAC's associated data.
  ``signature`` is made with the *ephemeral* key over
  ``static_shared_secret XOR initiator_nonce`` — proving possession of the
  static key while communicating the ephemeral one.
* **ack** = ECIES_encrypt(initiator_pubkey,
  RLP([responder_ephemeral_pubkey, responder_nonce, version]) || padding),
  same size-prefix scheme.

Both sides then derive (Geth ``p2p/rlpx``):

* ``ephemeral_shared`` = ECDH(own ephemeral, remote ephemeral)
* ``shared_secret``    = keccak(ephemeral_shared || keccak(resp_nonce || init_nonce))
* ``aes_secret``       = keccak(ephemeral_shared || shared_secret)
* ``mac_secret``       = keccak(ephemeral_shared || aes_secret)

and seed the running frame MACs with ``mac_secret XOR remote_nonce``
followed by the raw bytes of the auth/ack messages as seen on the wire.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.crypto.ecies import ecies_decrypt, ecies_encrypt
from repro.crypto.keccak import Keccak256, keccak256
from repro.crypto.keys import PrivateKey, PublicKey, Signature
from repro.errors import CryptoError, DecodingError, HandshakeError
from repro.rlp import codec
from repro.rlpx.frame import Secrets

#: RLPx protocol version in auth/ack messages.
RLPX_VERSION = 4

_NONCE_LEN = 32

#: EIP-8 says to pad with 100-300 bytes of random data.
_PAD_RANGE = (100, 250)


@dataclass
class HandshakeResult:
    """Everything a session needs after a completed handshake."""

    secrets: Secrets
    remote_public_key: PublicKey
    is_initiator: bool

    @property
    def remote_node_id(self) -> bytes:
        return self.remote_public_key.to_bytes()


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _random_padding() -> bytes:
    low, high = _PAD_RANGE
    return os.urandom(low + os.urandom(1)[0] % (high - low))


def _seal(plaintext: bytes, recipient: PublicKey) -> bytes:
    """ECIES-encrypt with the EIP-8 size prefix as associated data."""
    padded = plaintext + _random_padding()
    # ECIES overhead is 113 bytes; the prefix states the ciphertext length.
    size = len(padded) + 113
    prefix = size.to_bytes(2, "big")
    return prefix + ecies_encrypt(padded, recipient, shared_mac_data=prefix)


def _open(message: bytes, private_key: PrivateKey) -> tuple[bytes, bytes]:
    """Decrypt a size-prefixed handshake message.

    Returns (plaintext, wire_bytes) where wire_bytes is the exact byte string
    to feed the MAC seeds.
    """
    if len(message) < 2:
        raise HandshakeError("handshake message shorter than size prefix")
    prefix = message[:2]
    size = int.from_bytes(prefix, "big")
    if len(message) < 2 + size:
        raise HandshakeError(
            f"handshake message truncated: have {len(message) - 2}, need {size}"
        )
    wire = message[: 2 + size]
    try:
        plaintext = ecies_decrypt(wire[2:], private_key, shared_mac_data=prefix)
    except CryptoError as exc:
        raise HandshakeError(f"handshake decryption failed: {exc}") from exc
    return plaintext, wire


def _node_key(item: object, what: str) -> PublicKey:
    """An RLP node-ID field: exactly 64 bytes, a point on the curve."""
    if not isinstance(item, bytes) or len(item) != 64:
        raise HandshakeError(f"{what} must be 64 bytes")
    try:
        return PublicKey.from_bytes(item)
    except CryptoError as exc:
        raise HandshakeError(f"bad {what}: {exc}") from exc


def handshake_message_size(first_two_bytes: bytes) -> int:
    """Total wire size of a handshake message given its 2-byte prefix."""
    if len(first_two_bytes) != 2:
        raise HandshakeError("need exactly the 2 prefix bytes")
    return 2 + int.from_bytes(first_two_bytes, "big")


def make_auth(
    initiator_key: PrivateKey,
    responder_public: PublicKey,
    ephemeral_key: PrivateKey,
    nonce: bytes,
) -> bytes:
    """Build the size-prefixed, ECIES-sealed auth message."""
    if len(nonce) != _NONCE_LEN:
        raise HandshakeError("auth nonce must be 32 bytes")
    static_shared = initiator_key.ecdh(responder_public)
    signature = ephemeral_key.sign(_xor(static_shared, nonce))
    body = codec.encode(
        [
            signature.to_bytes(),
            initiator_key.public_key.to_bytes(),
            nonce,
            RLPX_VERSION,
        ]
    )
    return _seal(body, responder_public)


def read_auth(
    responder_key: PrivateKey, message: bytes
) -> tuple[PublicKey, PublicKey, bytes, bytes]:
    """Decrypt and validate an auth message.

    Returns (initiator_public, initiator_ephemeral_public, initiator_nonce,
    wire_bytes).
    """
    plaintext, wire = _open(message, responder_key)
    try:
        fields = codec.decode(plaintext, strict=False)
    except DecodingError as exc:
        raise HandshakeError(f"auth body is not valid RLP: {exc}") from exc
    if not isinstance(fields, list) or len(fields) < 4:
        raise HandshakeError("auth body must be a list of >= 4 items")
    sig_bytes, initiator_id, nonce, _version = fields[:4]
    if not isinstance(sig_bytes, bytes) or len(sig_bytes) != 65:
        raise HandshakeError("auth signature must be 65 bytes")
    if not isinstance(nonce, bytes) or len(nonce) != _NONCE_LEN:
        raise HandshakeError("auth nonce must be 32 bytes")
    initiator_public = _node_key(initiator_id, "initiator public key")
    static_shared = responder_key.ecdh(initiator_public)
    try:
        ephemeral_public = Signature.from_bytes(sig_bytes).recover(
            _xor(static_shared, nonce)
        )
    except CryptoError as exc:
        raise HandshakeError(f"cannot recover ephemeral key: {exc}") from exc
    return initiator_public, ephemeral_public, nonce, wire


def make_ack(
    initiator_public: PublicKey, ephemeral_key: PrivateKey, nonce: bytes
) -> bytes:
    """Build the size-prefixed, ECIES-sealed ack message."""
    if len(nonce) != _NONCE_LEN:
        raise HandshakeError("ack nonce must be 32 bytes")
    body = codec.encode(
        [ephemeral_key.public_key.to_bytes(), nonce, RLPX_VERSION]
    )
    return _seal(body, initiator_public)


def read_ack(
    initiator_key: PrivateKey, message: bytes
) -> tuple[PublicKey, bytes, bytes]:
    """Decrypt an ack message → (responder_ephemeral_public, nonce, wire)."""
    plaintext, wire = _open(message, initiator_key)
    try:
        fields = codec.decode(plaintext, strict=False)
    except DecodingError as exc:
        raise HandshakeError(f"ack body is not valid RLP: {exc}") from exc
    if not isinstance(fields, list) or len(fields) < 3:
        raise HandshakeError("ack body must be a list of >= 3 items")
    ephemeral_id, nonce, _version = fields[:3]
    if not isinstance(nonce, bytes) or len(nonce) != _NONCE_LEN:
        raise HandshakeError("ack nonce must be 32 bytes")
    ephemeral_public = _node_key(ephemeral_id, "responder ephemeral key")
    return ephemeral_public, nonce, wire


def derive_secrets(
    is_initiator: bool,
    ephemeral_key: PrivateKey,
    remote_ephemeral: PublicKey,
    initiator_nonce: bytes,
    responder_nonce: bytes,
    auth_wire: bytes,
    ack_wire: bytes,
) -> Secrets:
    """Derive the frame secrets both sides agree on."""
    ephemeral_shared = ephemeral_key.ecdh(remote_ephemeral)
    shared_secret = keccak256(
        ephemeral_shared + keccak256(responder_nonce + initiator_nonce)
    )
    aes_secret = keccak256(ephemeral_shared + shared_secret)
    mac_secret = keccak256(ephemeral_shared + aes_secret)
    # MAC seeds: mac_secret XOR remote_nonce, then the raw handshake bytes.
    mac_with_resp = Keccak256(_xor(mac_secret, responder_nonce) + auth_wire)
    mac_with_init = Keccak256(_xor(mac_secret, initiator_nonce) + ack_wire)
    if is_initiator:
        egress_mac, ingress_mac = mac_with_resp, mac_with_init
    else:
        egress_mac, ingress_mac = mac_with_init, mac_with_resp
    return Secrets(
        aes_secret=aes_secret,
        mac_secret=mac_secret,
        egress_mac=egress_mac,
        ingress_mac=ingress_mac,
    )


async def initiate_handshake(
    reader, writer, initiator_key: PrivateKey, responder_public: PublicKey
) -> HandshakeResult:
    """Run the initiator side of the handshake over asyncio streams."""
    ephemeral_key = PrivateKey.generate()
    nonce = os.urandom(_NONCE_LEN)
    auth_wire = make_auth(initiator_key, responder_public, ephemeral_key, nonce)
    writer.write(auth_wire)
    # the whole exchange runs under open_session's handshake_timeout wait_for
    await writer.drain()  # reprolint: disable=RETRY-SAFE
    prefix = await reader.readexactly(2)  # reprolint: disable=RETRY-SAFE
    rest = await reader.readexactly(  # reprolint: disable=RETRY-SAFE
        handshake_message_size(prefix) - 2
    )
    remote_ephemeral, responder_nonce, ack_wire = read_ack(
        initiator_key, prefix + rest
    )
    secrets = derive_secrets(
        is_initiator=True,
        ephemeral_key=ephemeral_key,
        remote_ephemeral=remote_ephemeral,
        initiator_nonce=nonce,
        responder_nonce=responder_nonce,
        auth_wire=auth_wire,
        ack_wire=ack_wire,
    )
    return HandshakeResult(
        secrets=secrets, remote_public_key=responder_public, is_initiator=True
    )


async def respond_handshake(reader, writer, responder_key: PrivateKey) -> HandshakeResult:
    """Run the responder side of the handshake over asyncio streams."""
    # the whole exchange runs under accept_session's HANDSHAKE_TIMEOUT wait_for
    prefix = await reader.readexactly(2)  # reprolint: disable=RETRY-SAFE
    rest = await reader.readexactly(  # reprolint: disable=RETRY-SAFE
        handshake_message_size(prefix) - 2
    )
    initiator_public, remote_ephemeral, initiator_nonce, auth_wire = read_auth(
        responder_key, prefix + rest
    )
    ephemeral_key = PrivateKey.generate()
    nonce = os.urandom(_NONCE_LEN)
    ack_wire = make_ack(initiator_public, ephemeral_key, nonce)
    writer.write(ack_wire)
    await writer.drain()  # reprolint: disable=RETRY-SAFE
    secrets = derive_secrets(
        is_initiator=False,
        ephemeral_key=ephemeral_key,
        remote_ephemeral=remote_ephemeral,
        initiator_nonce=initiator_nonce,
        responder_nonce=nonce,
        auth_wire=auth_wire,
        ack_wire=ack_wire,
    )
    return HandshakeResult(
        secrets=secrets, remote_public_key=initiator_public, is_initiator=False
    )
