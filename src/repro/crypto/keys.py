"""Key and signature objects wrapping the raw secp256k1 arithmetic.

An RLPx node's identity *is* its secp256k1 key pair: the 64-byte uncompressed
public key (without the ``0x04`` prefix) is the node ID that appears in enode
URLs, discovery packets, and the Kademlia distance metric.
"""

from __future__ import annotations

import secrets

from repro.crypto import secp256k1
from repro.errors import InvalidPrivateKey, InvalidPublicKey


class Signature:
    """A recoverable ECDSA signature (65 bytes: r || s || v)."""

    __slots__ = ("_raw",)

    def __init__(self, raw: secp256k1.RawSignature) -> None:
        self._raw = raw

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        return cls(secp256k1.RawSignature.from_bytes(data))

    @property
    def r(self) -> int:
        return self._raw.r

    @property
    def s(self) -> int:
        return self._raw.s

    @property
    def v(self) -> int:
        return self._raw.v

    def to_bytes(self) -> bytes:
        return self._raw.to_bytes()

    def recover(self, digest: bytes, expected: "PublicKey | None" = None) -> "PublicKey":
        """Recover the signer's public key from a 32-byte digest.

        ``expected`` is a hint, the key the caller believes signed: it is
        checked with one double-scalar multiplication over its cached
        table, and returned itself if it is the key recovery would return;
        only otherwise does the full recovery run.  The result, and any
        exception, is the same as without the hint.
        """
        if expected is None:
            return PublicKey(secp256k1.recover_digest(digest, self._raw))
        point = secp256k1.recover_digest(
            digest, self._raw, expected.point, expected._point_table()
        )
        return expected if point is expected.point else PublicKey(point)

    def __repr__(self) -> str:
        return f"Signature({self.to_bytes().hex()[:16]}...)"


class PublicKey:
    """A secp256k1 public key; doubles as the RLPx node ID."""

    __slots__ = ("_point", "_table")

    def __init__(self, point: secp256k1.AffinePoint) -> None:
        if point.is_infinity or not secp256k1.is_on_curve(point):
            raise InvalidPublicKey("invalid public key point")
        self._point = point
        self._table: secp256k1.PointTable | None = None

    def _point_table(self) -> secp256k1.PointTable:
        """This key's odd-multiple tables, built on the first hinted
        recovery that needs them and kept with the key."""
        if self._table is None:
            self._table = secp256k1.point_table(self._point)
        return self._table

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Accepts 64-byte node IDs, or SEC1 compressed/uncompressed points."""
        return cls(secp256k1.decode_point(data))

    @property
    def point(self) -> secp256k1.AffinePoint:
        return self._point

    def to_bytes(self) -> bytes:
        """The 64-byte node-ID encoding (X || Y, no prefix)."""
        return self._point.x.to_bytes(32, "big") + self._point.y.to_bytes(32, "big")

    def to_sec1_bytes(self) -> bytes:
        """65-byte uncompressed SEC 1 encoding (0x04 prefix), as ECIES uses."""
        return secp256k1.encode_point(self._point, compressed=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PublicKey):
            return NotImplemented
        return self._point == other._point

    def __hash__(self) -> int:
        return hash(self._point)

    def __repr__(self) -> str:
        return f"PublicKey({self.to_bytes().hex()[:16]}...)"


class PrivateKey:
    """A secp256k1 private key with signing and ECDH operations."""

    __slots__ = ("_secret", "_public")

    def __init__(self, secret: int) -> None:
        if not 1 <= secret < secp256k1.N:
            raise InvalidPrivateKey("private key scalar out of range")
        self._secret = secret
        self._public: PublicKey | None = None

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        if len(data) != 32:
            raise InvalidPrivateKey(f"private key must be 32 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def generate(cls, rng: "secrets.SystemRandom | None" = None) -> "PrivateKey":
        """Generate a fresh random key (CSPRNG unless ``rng`` is supplied)."""
        if rng is None:
            while True:
                candidate = secrets.randbits(256)
                if 1 <= candidate < secp256k1.N:
                    return cls(candidate)
        while True:
            candidate = rng.getrandbits(256)
            if 1 <= candidate < secp256k1.N:
                return cls(candidate)

    @property
    def secret(self) -> int:
        return self._secret

    @property
    def public_key(self) -> PublicKey:
        if self._public is None:
            self._public = PublicKey(secp256k1.generator_multiply(self._secret))
        return self._public

    def sign(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest (deterministic nonce, low-s, recoverable)."""
        return Signature(secp256k1.sign_digest(digest, self._secret))

    def ecdh(self, public_key: PublicKey) -> bytes:
        """32-byte ECDH shared secret with ``public_key``."""
        return secp256k1.ecdh(self._secret, public_key.point)

    def __repr__(self) -> str:
        return "PrivateKey(<redacted>)"
