"""secp256k1 elliptic-curve arithmetic, ECDSA, and ECDH.

RLPx node IDs are uncompressed secp256k1 public keys (64 bytes), discv4
packets carry recoverable ECDSA signatures, and the ECIES handshake derives
shared secrets via ECDH — all implemented here over plain Python integers.

Curve: ``y^2 = x^3 + 7`` over GF(p), p = 2^256 - 2^32 - 977.
Point arithmetic uses Jacobian projective coordinates; signing uses the
deterministic nonce construction of RFC 6979 (HMAC-SHA256), as Geth does.

Scalar multiplication is table-driven: a fixed-base comb for ``k*G``; for
``k*P`` the GLV endomorphism splits ``k`` into two half-length scalars walked
as one joint width-5 wNAF (about 130 doublings instead of 256), so ``P``
must be on the curve; and the two chained for the ``a*P + b*G`` of verify
and recover.  It is deliberately simple rather than constant-time -- table
indices, wNAF digits and branch counts all depend on the scalar: the threat
model of a measurement reproduction is correctness, not side channels, and
tests validate it against published vectors, a naive double-and-add oracle
and the ``cryptography`` package.  The comb table for ``G`` (64 windows x 15
affine points, about 0.2 MB) is built on first use, not at import; that
costs roughly 17 ms once per process, paid by the first sign, recover,
verify or key derivation.
"""

from __future__ import annotations

import functools
import hmac
import hashlib
import math
from typing import NamedTuple

from repro.errors import InvalidPublicKey, InvalidPrivateKey, InvalidSignature

# Curve parameters (SEC 2).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_HALF_N = N // 2


class AffinePoint(NamedTuple):
    """An affine curve point; ``None`` coordinates encode the point at infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = AffinePoint(None, None)
GENERATOR = AffinePoint(GX, GY)


def is_on_curve(point: AffinePoint) -> bool:
    """Check the curve equation for an affine point."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - x * x * x - B) % P == 0


# --- Jacobian arithmetic -------------------------------------------------
#
# A Jacobian point (X, Y, Z) represents affine (X/Z^2, Y/Z^3); it avoids a
# modular inverse per addition, which dominates pure-Python cost.

_Jacobian = tuple[int, int, int]
_Affine = tuple[int, int]  # a finite affine point, as the tables store it

_J_INFINITY: _Jacobian = (0, 1, 0)


def _to_jacobian(point: AffinePoint) -> _Jacobian:
    if point.is_infinity:
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(point: _Jacobian) -> AffinePoint:
    x, y, z = point
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return AffinePoint(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _j_double(point: _Jacobian) -> _Jacobian:
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P  # a == 0 so no a*z^4 term
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _j_add(p: _Jacobian, q: _Jacobian) -> _Jacobian:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _j_double(p)
    h = (u2 - u1) % P
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h * z1 * z2 % P
    return (nx, ny, nz)


def _j_add_affine(p: _Jacobian, q: _Affine) -> _Jacobian:
    """Mixed addition: Jacobian ``p`` plus the finite affine point ``q``."""
    x1, y1, z1 = p
    x2, y2 = q
    if z1 == 0:
        return (x2, y2, 1)
    z1z1 = z1 * z1 % P
    h = (x2 * z1z1 - x1) % P
    r = (y2 * z1z1 % P * z1 - y1) % P
    if h == 0:
        if r != 0:
            return _J_INFINITY
        return _j_double(p)
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    nx = (r * r - hhh - 2 * v) % P
    ny = (r * (v - nx) - y1 * hhh) % P
    nz = z1 * h % P
    return (nx, ny, nz)


# --- Scalar multiplication -----------------------------------------------
#
# Two tables, no generic double-and-add.  ``k*G`` walks a fixed-base comb:
# ``_generator_table()[i][j - 1]`` is the affine point ``j * 16^i * G``, so a
# 256-bit scalar is at most 64 mixed additions and no doubling at all.
# ``k*P`` for a point only known at call time splits ``k = k1 + k2*LAMBDA``
# and recodes both halves in width-5 wNAF over the eight affine odd
# multiples P, 3P, ..., 15P and their images under phi.  ``a*P + b*G`` --
# what verify and recover need -- is that result handed to the comb walk as
# its starting accumulator: one pass over each scalar.


def _batch_to_affine(points: list[_Jacobian]) -> list[_Affine]:
    """Finite Jacobian points to affine with one shared inversion
    (Montgomery's trick)."""
    prefix = [1]
    for point in points:
        prefix.append(prefix[-1] * point[2] % P)
    inverse = pow(prefix[-1], -1, P)
    affine: list[_Affine] = [(0, 0)] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = inverse * prefix[index] % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        affine[index] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return affine


@functools.cache
def _generator_table() -> tuple[tuple[_Affine, ...], ...]:
    """The comb table for ``G``: 64 four-bit windows x 15 affine multiples.

    Built on first use, never at import: 960 Jacobian points brought to
    affine together.  No entry is the point at infinity, since every
    ``j * 16^i`` is below the group order.
    """
    points: list[_Jacobian] = []
    base = _to_jacobian(GENERATOR)
    for _ in range(64):
        multiple = base
        points.append(multiple)
        for _ in range(14):
            multiple = _j_add(multiple, base)
            points.append(multiple)
        base = _j_add(multiple, base)
    affine = _batch_to_affine(points)
    return tuple(tuple(affine[i : i + 15]) for i in range(0, len(affine), 15))


def _j_generator_multiply(scalar: int, start: _Jacobian = _J_INFINITY) -> _Jacobian:
    """``start + scalar * G`` for ``0 <= scalar < 2^256``: one comb walk."""
    result = start
    for window in _generator_table():
        digit = scalar & 15
        if digit:
            result = _j_add_affine(result, window[digit - 1])
        scalar >>= 4
    return result


def _glv_basis(n: int, lam: int) -> tuple[int, int, int, int]:
    """A short basis ``(a1, b1), (a2, b2)`` of ``{(a, b) : a + b*lam ≡ 0 (mod n)}``.

    Extended Euclid on ``(n, lam)`` keeps ``r_i ≡ t_i * lam (mod n)``, so
    every ``(r_i, -t_i)`` is a lattice vector.  The first remainder below
    ``sqrt(n)`` gives one basis vector and the shorter of its two
    neighbours the other (Guide to Elliptic Curve Cryptography, Alg. 3.74).
    """
    bound = math.isqrt(n)
    r0, r1, t0, t1 = n, lam, 0, 1
    while r1 >= bound:  # stop with r0 >= sqrt(n) > r1
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2:
        return r1, -t1, r0, -t0
    return r1, -t1, r2, -t2


# GLV: secp256k1 has j-invariant 0, so ``phi(x, y) = (BETA*x, y)`` is an
# endomorphism acting on every curve point (prime order, cofactor 1) as
# multiplication by LAMBDA.  Both are primitive cube roots of unity (mod N
# and mod P), paired so that ``LAMBDA*G == (BETA*GX, GY)``; the tests
# re-derive all three facts.  On a twist the pairing does not hold.
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_A1, _B1, _A2, _B2 = _glv_basis(N, _LAMBDA)


def _split_scalar(scalar: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``scalar ≡ k1 + k2*LAMBDA (mod N)``, ``|k1|, |k2| < 2^129``.

    Rounds ``scalar`` onto the lattice (Babai) and keeps the remainder.
    """
    c1 = (_B2 * scalar + _HALF_N) // N
    c2 = (-_B1 * scalar + _HALF_N) // N
    return scalar - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(scalar: int) -> list[int]:
    """Width-5 NAF of ``scalar >= 0``, least significant digit first: each
    non-zero digit is odd, ``|d| < 16``, and at least four zeros apart."""
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & 31
            if digit >= 16:
                digit -= 32
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    return digits


def _digit_table(odd: list[_Affine], beta: int, negate: bool) -> list[_Affine]:
    """``table[d] = d * Q`` for every odd ``|d| < 16`` (a negative ``d``
    indexes from the end): ``Q`` is the point (``beta = 1``) or its image
    under phi (``beta = _BETA``), negated when ``negate`` -- the sign of a
    split scalar folds into the ``y``s."""
    table: list[_Affine] = [(0, 0)] * 32
    for index, (x, y) in enumerate(odd):
        x = x * beta % P
        y = P - y if negate else y
        table[2 * index + 1] = (x, y)
        table[-2 * index - 1] = (x, P - y)
    return table


def _j_multiply(point: AffinePoint, scalar: int) -> _Jacobian:
    """``scalar * point`` for a point on the curve; the scalar is taken mod N.

    ``scalar*P = k1*P + k2*phi(P)`` with half-length ``k1``, ``k2``: one
    joint width-5 wNAF over the odd multiples of ``P`` and ``phi(P)``,
    sharing one chain of at most 130 doublings.
    """
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return _J_INFINITY
    k1, k2 = _split_scalar(scalar)
    base = _to_jacobian(point)
    twice = _j_double(base)
    odd = [base]  # odd[i] = (2i + 1) * point; none is infinity (prime order)
    for _ in range(7):
        odd.append(_j_add(odd[-1], twice))
    affine = _batch_to_affine(odd)
    table1 = _digit_table(affine, 1, k1 < 0)
    table2 = _digit_table(affine, _BETA, k2 < 0)
    digits1, digits2 = _wnaf(abs(k1)), _wnaf(abs(k2))
    length = max(len(digits1), len(digits2))
    digits1 += [0] * (length - len(digits1))
    digits2 += [0] * (length - len(digits2))
    result = _J_INFINITY
    for index in range(length - 1, -1, -1):
        result = _j_double(result)
        digit = digits1[index]
        if digit:
            result = _j_add_affine(result, table1[digit])
        digit = digits2[index]
        if digit:
            result = _j_add_affine(result, table2[digit])
    return result


def point_add(p: AffinePoint, q: AffinePoint) -> AffinePoint:
    """Affine point addition."""
    return _from_jacobian(_j_add(_to_jacobian(p), _to_jacobian(q)))


def point_multiply(point: AffinePoint, scalar: int) -> AffinePoint:
    """Affine scalar multiplication ``scalar * point``.

    Raises :class:`InvalidPublicKey` for a point off the curve: the GLV
    split is only valid on it.
    """
    if not is_on_curve(point):
        raise InvalidPublicKey("cannot multiply a point off the curve")
    return _from_jacobian(_j_multiply(point, scalar))


def point_negate(point: AffinePoint) -> AffinePoint:
    if point.is_infinity:
        return point
    return AffinePoint(point.x, (-point.y) % P)


def generator_multiply(scalar: int) -> AffinePoint:
    """``scalar * G``."""
    return _from_jacobian(_j_generator_multiply(scalar % N))


# --- Encoding -------------------------------------------------------------

def encode_point(point: AffinePoint, compressed: bool = False) -> bytes:
    """SEC 1 point encoding (65-byte uncompressed or 33-byte compressed)."""
    if point.is_infinity:
        raise InvalidPublicKey("cannot encode point at infinity")
    if compressed:
        prefix = 0x02 | (point.y & 1)
        return bytes([prefix]) + point.x.to_bytes(32, "big")
    return b"\x04" + point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")


def decode_point(data: bytes) -> AffinePoint:
    """Decode a SEC 1 point (accepts compressed, uncompressed, and the raw
    64-byte X||Y form RLPx uses for node IDs)."""
    if len(data) == 64:
        data = b"\x04" + data
    if len(data) == 65 and data[0] == 0x04:
        x = int.from_bytes(data[1:33], "big")
        y = int.from_bytes(data[33:], "big")
        point = AffinePoint(x, y)
        if not is_on_curve(point):
            raise InvalidPublicKey("point not on curve")
        return point
    if len(data) == 33 and data[0] in (0x02, 0x03):
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise InvalidPublicKey("x coordinate out of range")
        y = solve_y(x, data[0] & 1)
        return AffinePoint(x, y)
    raise InvalidPublicKey(f"cannot decode point from {len(data)} bytes")


def solve_y(x: int, parity: int) -> int:
    """Solve the curve equation for y with the given parity bit."""
    y_squared = (pow(x, 3, P) + B) % P
    y = pow(y_squared, (P + 1) // 4, P)
    if y * y % P != y_squared:
        raise InvalidPublicKey(f"no curve point with x={x:#x}")
    if y & 1 != parity:
        y = P - y
    return y


# --- ECDSA ----------------------------------------------------------------

class RawSignature(NamedTuple):
    """A recoverable ECDSA signature: (r, s, recovery id v in {0,1})."""

    r: int
    s: int
    v: int

    def to_bytes(self) -> bytes:
        """65-byte r || s || v encoding used by discv4 and the RLPx handshake."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big") + bytes([self.v])

    @classmethod
    def from_bytes(cls, data: bytes) -> "RawSignature":
        if len(data) != 65:
            raise InvalidSignature(f"signature must be 65 bytes, got {len(data)}")
        r = int.from_bytes(data[:32], "big")
        s = int.from_bytes(data[32:64], "big")
        v = data[64]
        if 27 <= v <= 30:  # Ethereum-style 27 + recovery id
            v -= 27
        if v not in (0, 1, 2, 3):
            raise InvalidSignature(f"invalid recovery id {data[64]}")
        return cls(r, s, v)


def _rfc6979_nonce(digest: bytes, private_key: int, extra: bytes = b"") -> int:
    """Deterministic nonce per RFC 6979 with HMAC-SHA256."""
    holen = 32
    x = private_key.to_bytes(32, "big")
    h1 = digest
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1 + extra, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1 + extra, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        nonce = int.from_bytes(v, "big")
        if 1 <= nonce < N:
            return nonce
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign_digest(digest: bytes, private_key: int) -> RawSignature:
    """Sign a 32-byte digest, returning a recoverable low-s signature."""
    if len(digest) != 32:
        raise InvalidSignature(f"digest must be 32 bytes, got {len(digest)}")
    if not 1 <= private_key < N:
        raise InvalidPrivateKey("private key out of range")
    z = int.from_bytes(digest, "big")
    attempt = 0
    while True:
        extra = attempt.to_bytes(4, "big") if attempt else b""
        k = _rfc6979_nonce(digest, private_key, extra)
        point = _from_jacobian(_j_generator_multiply(k))
        if point.is_infinity:
            attempt += 1
            continue
        r = point.x % N
        if r == 0:
            attempt += 1
            continue
        s = pow(k, -1, N) * (z + r * private_key) % N
        if s == 0:
            attempt += 1
            continue
        v = (point.y & 1) | (2 if point.x >= N else 0)
        if s > _HALF_N:
            s = N - s
            v ^= 1
        return RawSignature(r, s, v)


def verify_digest(digest: bytes, signature: RawSignature, public_key: AffinePoint) -> bool:
    """Verify ``signature`` over a 32-byte ``digest`` against ``public_key``."""
    if len(digest) != 32:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        return False
    if public_key.is_infinity or not is_on_curve(public_key):
        return False
    z = int.from_bytes(digest, "big")
    w = pow(s, -1, N)
    u1 = z * w % N
    u2 = r * w % N
    point = _from_jacobian(_j_generator_multiply(u1, _j_multiply(public_key, u2)))
    if point.is_infinity:
        return False
    return point.x % N == r


def recover_digest(digest: bytes, signature: RawSignature) -> AffinePoint:
    """Recover the signing public key from a recoverable signature.

    This is how discv4 learns the sender's node ID from a datagram.
    """
    if len(digest) != 32:
        raise InvalidSignature("digest must be 32 bytes")
    r, s, v = signature
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("r or s out of range")
    x = r + N if v & 2 else r
    if x >= P:
        raise InvalidSignature("invalid x coordinate for recovery")
    try:
        y = solve_y(x, v & 1)
    except InvalidPublicKey as exc:
        raise InvalidSignature(str(exc)) from exc
    point_r = AffinePoint(x, y)
    z = int.from_bytes(digest, "big")
    r_inv = pow(r, -1, N)
    # Q = r^-1 (s*R - z*G) = (s/r)*R + (-z/r)*G
    q = _from_jacobian(
        _j_generator_multiply(-z * r_inv % N, _j_multiply(point_r, s * r_inv % N))
    )
    if q.is_infinity or not is_on_curve(q):
        raise InvalidSignature("recovered point not on curve")
    return q


def ecdh(private_key: int, public_key: AffinePoint) -> bytes:
    """ECDH shared secret: the 32-byte x-coordinate of ``d * Q``.

    This matches Geth's ``ecies.GenerateShared`` (x-coordinate only).
    """
    if not 1 <= private_key < N:
        raise InvalidPrivateKey("private key out of range")
    if public_key.is_infinity or not is_on_curve(public_key):
        raise InvalidPublicKey("invalid public key for ECDH")
    shared = point_multiply(public_key, private_key)
    if shared.is_infinity:
        raise InvalidPublicKey("ECDH produced point at infinity")
    return shared.x.to_bytes(32, "big")
