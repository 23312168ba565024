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
must be on the curve; and for the ``a*G + b*Q`` of recovery, one
joint wNAF chain over the GLV halves of both scalars -- width 7 over ``G``'s
fixed odd multiples, width 5 over ``Q``'s (:func:`point_table`, which a
caller holding the same key for many calls keeps, as
:class:`~repro.crypto.keys.PublicKey` does).
Recovery takes a hint: given the key the caller expects, one ``a*G + b*Q``
checks it, and the full recovery runs only when that check fails.

The arithmetic is deliberately simple rather than constant-time -- table
indices, wNAF digits and branch counts all depend on the scalar: the threat
model of a measurement reproduction is correctness, not side channels, and
tests validate it against published vectors, a naive double-and-add oracle
and the ``cryptography`` package.  The comb table for ``G`` (64 windows x 15
affine points, about 0.2 MB) is built on first use, not at import; that
costs roughly 17 ms once per process, paid by the first sign or key
derivation, and ``G``'s 32 odd multiples likewise by the first
recovery.
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
# No generic double-and-add.  ``k*G`` walks a fixed-base comb:
# ``_generator_table()[i][j - 1]`` is the affine point ``j * 16^i * G``, so a
# 256-bit scalar is at most 64 mixed additions and no doubling at all.
# ``k*P`` for a point only known at call time splits ``k = k1 + k2*LAMBDA``
# and recodes both halves in width-5 wNAF over the eight affine odd
# multiples P, 3P, ..., 15P and their images under phi.  ``a*G + b*Q`` --
# what recovery and its hinted signer check need -- splits both scalars
# and walks all four halves in one doubling chain: ``a``'s in width 7 over
# G's 32 fixed odd multiples, ``b``'s in width 5 over Q's.


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


def _j_generator_multiply(scalar: int) -> _Jacobian:
    """``scalar * G`` for ``0 <= scalar < 2^256``: one comb walk."""
    result = _J_INFINITY
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


def _wnaf(scalar: int, width: int) -> list[tuple[int, int]]:
    """Width-``width`` NAF of ``scalar`` as ``(position, digit)`` pairs for
    its non-zero digits, least significant first: each digit is odd,
    ``|d| < 2^(width - 1)``, and at least ``width`` positions after the
    last.  A negative ``scalar`` gets the negated digits of ``-scalar``, so
    the sign of a GLV half folds into the digits, not into a table."""
    sign = -1 if scalar < 0 else 1
    scalar = abs(scalar)
    full = 1 << width
    digits = []
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (full - 1)
        if digit >= full >> 1:
            digit -= full
        digits.append((position, sign * digit))
        scalar = (scalar - digit) >> width  # the next width - 1 digits are 0
        position += width
    return digits


#: A point's digit tables for one wNAF width, and its image's under phi:
#: ``tables[0][d] = d * Q`` and ``tables[1][d] = d * phi(Q)`` for every odd
#: ``|d|`` below the width's bound (a negative ``d`` indexes from the end).
PointTable = tuple[tuple[_Affine, ...], tuple[_Affine, ...]]


def _digit_tables(point: _Jacobian, count: int) -> PointTable:
    """The :data:`PointTable` of the ``count`` odd multiples of a finite
    ``point``: one doubling, ``count - 1`` additions, one inversion.  No
    multiple is the point at infinity (prime order)."""
    twice = _j_double(point)
    odd = [point]  # odd[i] = (2i + 1) * point
    for _ in range(count - 1):
        odd.append(_j_add(odd[-1], twice))
    plain: list[_Affine] = [(0, 0)] * (4 * count)
    image: list[_Affine] = [(0, 0)] * (4 * count)
    for index, (x, y) in enumerate(_batch_to_affine(odd)):
        x_image = x * _BETA % P
        plain[2 * index + 1] = (x, y)
        plain[-2 * index - 1] = (x, P - y)
        image[2 * index + 1] = (x_image, y)
        image[-2 * index - 1] = (x_image, P - y)
    return tuple(plain), tuple(image)


def point_table(point: AffinePoint) -> PointTable:
    """The width-5 tables of a finite point ``Q`` on the curve: what
    :func:`recover_digest` takes to skip
    rebuilding them when one key checks many signatures."""
    return _digit_tables(_to_jacobian(point), 8)


@functools.cache
def _generator_digit_tables() -> PointTable:
    """``G``'s width-7 tables (32 odd multiples and their images), built
    on the first recovery, never at import."""
    return _digit_tables(_to_jacobian(GENERATOR), 32)


_Term = tuple[list[tuple[int, int]], tuple[_Affine, ...]]


def _glv_terms(scalar: int, tables: PointTable, width: int) -> list[_Term]:
    """``scalar * Q`` as two terms of a :func:`_j_chain`: the wNAF digits
    of the GLV halves ``k1``, ``k2`` against ``Q``'s and ``phi(Q)``'s tables."""
    k1, k2 = _split_scalar(scalar)
    return [(_wnaf(k1, width), tables[0]), (_wnaf(k2, width), tables[1])]


def _j_chain(terms: list[_Term]) -> _Jacobian:
    """``sum(digit * 2^position * table[digit])`` over every term: one
    shared chain of doublings up to the highest digit, each digit's table
    entry mixed in at its position."""
    length = max(digits[-1][0] + 1 if digits else 0 for digits, _ in terms)
    steps: list[list[_Affine]] = [[] for _ in range(length)]
    for digits, table in terms:
        for position, digit in digits:
            steps[position].append(table[digit])
    result = _J_INFINITY
    for addends in reversed(steps):
        result = _j_double(result)
        for addend in addends:
            result = _j_add_affine(result, addend)
    return result


def _j_multiply(point: AffinePoint, scalar: int) -> _Jacobian:
    """``scalar * point`` for a point on the curve; the scalar is taken mod N.

    ``scalar*P = k1*P + k2*phi(P)`` with half-length ``k1``, ``k2``: one
    joint width-5 wNAF over the odd multiples of ``P`` and ``phi(P)``,
    sharing one chain of at most 130 doublings.
    """
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return _J_INFINITY
    return _j_chain(_glv_terms(scalar, point_table(point), 5))


def _j_double_multiply(a: int, b: int, table: PointTable) -> _Jacobian:
    """``a*G + b*Q`` for ``0 <= a, b < N`` and ``Q``'s :func:`point_table`:
    the GLV halves of both scalars in one chain of about 130 doublings."""
    return _j_chain(
        _glv_terms(a, _generator_digit_tables(), 7) + _glv_terms(b, table, 5)
    )


def point_multiply(point: AffinePoint, scalar: int) -> AffinePoint:
    """Affine scalar multiplication ``scalar * point``.

    Raises :class:`InvalidPublicKey` for a point off the curve: the GLV
    split is only valid on it.
    """
    if not is_on_curve(point):
        raise InvalidPublicKey("cannot multiply a point off the curve")
    return _from_jacobian(_j_multiply(point, scalar))


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


def recover_digest(
    digest: bytes,
    signature: RawSignature,
    expected: AffinePoint | None = None,
    table: PointTable | None = None,
) -> AffinePoint:
    """Recover the signing public key from a recoverable signature.

    This is how discv4 learns the sender's node ID from a datagram.

    ``expected`` is a hint: a key on the curve that the caller believes
    signed (``table``: its :func:`point_table`, if the caller keeps one).
    It is checked first, by one ``a*G + b*Q`` (:func:`_signed_by`); the full
    recovery runs only if the check fails.  The result is the key the full
    recovery returns, either way, and the range checks raise before either
    path runs.
    """
    if len(digest) != 32:
        raise InvalidSignature("digest must be 32 bytes")
    r, s, v = signature
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("r or s out of range")
    x = r + N if v & 2 else r
    if x >= P:
        raise InvalidSignature("invalid x coordinate for recovery")
    z = int.from_bytes(digest, "big")
    if expected is not None:
        if table is None:
            table = point_table(expected)
        if _signed_by(z, r, s, x, v & 1, table):
            return expected
    return _recover(z, r, s, x, v & 1)


def _signed_by(z: int, r: int, s: int, x: int, parity: int, table: PointTable) -> bool:
    """Whether recovery of ``(r, s)`` with ``R = (x, parity)`` yields the key
    ``Q`` of ``table``.

    It does iff ``R' = (z/s)*G + (r/s)*Q`` is that ``R``: if recovery
    yields ``Q`` then ``s*R = z*G + r*Q``, so ``R' = R``; and an ``R'`` with
    that ``x`` and that parity is exactly the point recovery solves for,
    whence ``r^-1 (s*R' - z*G) = Q``.  Checking ``x`` alone would also pass
    ``-R`` -- what ECDSA verification accepts, a different key to recovery.
    """
    s_inv = pow(s, -1, N)
    point = _from_jacobian(_j_double_multiply(z * s_inv % N, r * s_inv % N, table))
    return point.x == x and point.y & 1 == parity


def _recover(z: int, r: int, s: int, x: int, parity: int) -> AffinePoint:
    """The full recovery: ``R`` from ``(x, parity)``, then
    ``Q = r^-1 (s*R - z*G) = (-z/r)*G + (s/r)*R``."""
    try:
        y = solve_y(x, parity)
    except InvalidPublicKey as exc:
        raise InvalidSignature(str(exc)) from exc
    r_inv = pow(r, -1, N)
    q = _from_jacobian(
        _j_double_multiply(
            -z * r_inv % N, s * r_inv % N, point_table(AffinePoint(x, y))
        )
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
