"""ECIES encryption as implemented by Geth (``crypto/ecies``).

The RLPx handshake wraps its auth and ack messages in ECIES:

1. generate an ephemeral secp256k1 key pair;
2. ``Z`` = ECDH(ephemeral secret, recipient public key) — 32-byte x-coord;
3. ``K`` = concatKDF(Z, 32); ``kE`` = K[:16], ``kM`` = SHA256(K[16:]);
4. ``c`` = AES-128-CTR(kE, iv, plaintext) with a random 16-byte IV;
5. ``d`` = HMAC-SHA256(kM, iv || c || shared_mac_data);
6. ciphertext = ``0x04 || ephemeral_pubkey(64) || iv || c || d``.

``shared_mac_data`` carries the EIP-8 size prefix during the handshake.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.crypto.aes import aes_ctr
from repro.crypto.kdf import concat_kdf
from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import CryptoError, DecryptionError

#: bytes added by ECIES: 65 (pubkey) + 16 (IV) + 32 (HMAC tag)
ECIES_OVERHEAD = 65 + 16 + 32

_KEY_LEN = 16  # AES-128


def ecies_encrypt(
    plaintext: bytes,
    recipient: PublicKey,
    shared_mac_data: bytes = b"",
    ephemeral_key: PrivateKey | None = None,
    iv: bytes | None = None,
) -> bytes:
    """Encrypt ``plaintext`` to ``recipient``.

    ``ephemeral_key`` and ``iv`` may be pinned for deterministic tests; by
    default both are freshly random per message.
    """
    if ephemeral_key is None:
        ephemeral_key = PrivateKey.generate()
    if iv is None:
        iv = secrets.token_bytes(16)
    if len(iv) != 16:
        raise DecryptionError("ECIES IV must be 16 bytes")
    shared = ephemeral_key.ecdh(recipient)
    key_material = concat_kdf(shared, 2 * _KEY_LEN)
    enc_key = key_material[:_KEY_LEN]
    mac_key = hashlib.sha256(key_material[_KEY_LEN:]).digest()
    ciphertext = aes_ctr(enc_key, iv, plaintext)
    tag = hmac.new(mac_key, iv + ciphertext + shared_mac_data, hashlib.sha256).digest()
    return ephemeral_key.public_key.to_sec1_bytes() + iv + ciphertext + tag


def ecies_decrypt(
    message: bytes, private_key: PrivateKey, shared_mac_data: bytes = b""
) -> bytes:
    """Decrypt an ECIES message addressed to ``private_key``.

    Raises :class:`~repro.errors.DecryptionError` on malformed input or MAC
    mismatch.
    """
    if len(message) < ECIES_OVERHEAD:
        raise DecryptionError(
            f"ECIES message too short: {len(message)} < {ECIES_OVERHEAD}"
        )
    if message[0] != 0x04:
        raise DecryptionError("ECIES message must start with uncompressed point")
    try:
        ephemeral_public = PublicKey.from_bytes(message[:65])
    except CryptoError as exc:
        raise DecryptionError(f"bad ephemeral public key: {exc}") from exc
    iv = message[65:81]
    ciphertext = message[81:-32]
    tag = message[-32:]
    shared = private_key.ecdh(ephemeral_public)
    key_material = concat_kdf(shared, 2 * _KEY_LEN)
    enc_key = key_material[:_KEY_LEN]
    mac_key = hashlib.sha256(key_material[_KEY_LEN:]).digest()
    expected = hmac.new(
        mac_key, iv + ciphertext + shared_mac_data, hashlib.sha256
    ).digest()
    if not hmac.compare_digest(tag, expected):
        raise DecryptionError("ECIES MAC mismatch")
    return aes_ctr(enc_key, iv, ciphertext)
