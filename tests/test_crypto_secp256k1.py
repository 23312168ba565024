"""secp256k1 arithmetic, ECDSA, recovery, and ECDH tests.

Three independent references keep the table-driven engine honest: a naive
affine double-and-add oracle defined here, the published vectors in
``tests/vectors/secp256k1.json``, and the `cryptography` package where
available.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import secp256k1 as ec
from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey, PublicKey, Signature
from repro.errors import InvalidPrivateKey, InvalidPublicKey, InvalidSignature

scalars = st.integers(min_value=1, max_value=ec.N - 1)
digests = st.binary(min_size=32, max_size=32)

VECTORS = json.loads((Path(__file__).parent / "vectors" / "secp256k1.json").read_text())


# --- Reference oracle -----------------------------------------------------
#
# Textbook affine arithmetic, one modular inverse per step, and the
# bit-at-a-time double-and-add the engine replaced.  It shares no code with
# ``repro.crypto.secp256k1`` beyond the curve constants.

def naive_add(p, q):
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if (y1 + y2) % ec.P == 0:
            return None
        slope = 3 * x1 * x1 * pow(2 * y1, -1, ec.P) % ec.P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, ec.P) % ec.P
    x3 = (slope * slope - x1 - x2) % ec.P
    return (x3, (slope * (x1 - x3) - y1) % ec.P)


def naive_multiply(point, scalar):
    """``scalar * point`` for ``scalar >= 0``; ``None`` is the point at infinity."""
    result, addend = None, point
    while scalar:
        if scalar & 1:
            result = naive_add(result, addend)
        addend = naive_add(addend, addend)
        scalar >>= 1
    return result


G = (ec.GX, ec.GY)


def as_affine(pair):
    return ec.INFINITY if pair is None else ec.AffinePoint(*pair)


def naive_recover(digest, r, s, v):
    """Q = r^-1 (s*R - z*G), straight from SEC 1 section 4.1.6."""
    x = r + ec.N if v & 2 else r
    big_r = (x, ec.solve_y(x, v & 1))
    z = int.from_bytes(digest, "big")
    s_r = naive_multiply(big_r, s)
    z_g = naive_multiply(G, z % ec.N)
    minus_z_g = None if z_g is None else (z_g[0], -z_g[1] % ec.P)
    return naive_multiply(naive_add(s_r, minus_z_g), pow(r, -1, ec.N))


def naive_verify(digest, r, s, public):
    z = int.from_bytes(digest, "big")
    w = pow(s, -1, ec.N)
    point = naive_add(
        naive_multiply(G, z * w % ec.N), naive_multiply(public, r * w % ec.N)
    )
    return point is not None and point[0] % ec.N == r


def _first_scalar_rounding_to(multiplier, count):
    """The least ``k`` with ``round(multiplier * k / N) == count``."""
    return -((ec._HALF_N - count * ec.N) // multiplier)


#: the GLV split's seams: lambda and its negation (one half zero, the other
#: +-1), and where either rounded lattice coefficient steps from 0 to 1 and
#: from 1 to 2, one scalar either side
GLV_EDGE_SCALARS = [ec._LAMBDA, ec.N - ec._LAMBDA] + sorted(
    _first_scalar_rounding_to(multiplier, count) + offset
    for multiplier in (ec._B2, -ec._B1)
    for count in (1, 2)
    for offset in (-1, 0)
)

#: scalars that sit on the engine's seams: group-order wraparound, single
#: bits and runs of ones across comb-window and wNAF-window boundaries,
#: all-ones and alternating nibbles, wNAF carry chains (a run of ones
#: recodes to -1 and a carry; 17 and 15 are the +-15 digits), and the GLV
#: split's seams.
EDGE_SCALARS = sorted(
    {0, 1, 2, 3, ec.N - 2, ec.N - 1, ec.N, ec.N + 1, 2 * ec.N - 1, (1 << 256) - 1}
    | set(GLV_EDGE_SCALARS)
    | {1 << k for k in (1, 3, 4, 5, 8, 63, 64, 127, 128, 251, 252, 253, 254, 255, 256)}
    | {(1 << k) - 1 for k in (2, 4, 5, 6, 8, 64, 65, 128, 252, 255, 256)}
    | {(1 << k) + 1 for k in (4, 5, 128, 255)}
    | {15, 17, 31, 33, 0xF0, 0xFF0, 0x10F, 0x1F1F, 0b1110111, 0b10101010101}
    | {int("f" * 64, 16) // 0xF * d for d in (1, 5, 7, 8, 9, 0xA, 0xF)}  # 0x1111.., 0x5555.., ...
    | {int("f0" * 32, 16), int("0f" * 32, 16), int("ff00" * 16, 16), int("0001" * 16, 16)}
)


class TestCurveArithmetic:
    def test_generator_on_curve(self):
        assert ec.is_on_curve(ec.GENERATOR)

    def test_point_plus_negation_is_infinity(self):
        point = ec.generator_multiply(12345)
        assert naive_add(point, ec.generator_multiply(ec.N - 12345)) is None

    def test_order_times_generator_is_infinity(self):
        assert ec.generator_multiply(ec.N).is_infinity

    def test_known_multiple(self):
        # 2G, from the SEC test vectors
        twice = ec.generator_multiply(2)
        assert twice.x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5

    @settings(max_examples=15)
    @given(scalars, scalars)
    def test_multiplication_distributes(self, a, b):
        left = naive_add(ec.generator_multiply(a), ec.generator_multiply(b))
        assert as_affine(left) == ec.generator_multiply((a + b) % ec.N)

    def test_doubling_matches_addition(self):
        point = ec.generator_multiply(7)
        assert as_affine(naive_add(point, point)) == ec.generator_multiply(14)

    def test_non_canonical_coordinates_are_off_curve(self):
        # x + P satisfies the equation mod P but is not a field element
        assert not ec.is_on_curve(ec.AffinePoint(ec.GX + ec.P, ec.GY))
        assert not ec.is_on_curve(ec.AffinePoint(ec.GX, ec.GY + ec.P))
        assert not ec.is_on_curve(ec.AffinePoint(ec.GX, ec.GY - ec.P))


class TestScalarMultiplicationEngine:
    """The comb / wNAF engine against the naive oracle, seam by seam."""

    def test_generator_table_layout(self):
        table = ec._generator_table()
        assert len(table) == 64 and all(len(window) == 15 for window in table)
        for i, j in ((0, 1), (0, 15), (1, 1), (7, 9), (63, 1), (63, 15)):
            assert table[i][j - 1] == naive_multiply(G, j << (4 * i))
        assert all(ec.is_on_curve(ec.AffinePoint(*entry)) for window in table for entry in window)

    def test_table_is_not_built_at_import(self):
        code = (
            "import repro, repro.crypto.keys, repro.crypto.secp256k1 as ec;"
            "assert ec._generator_table.cache_info().currsize == 0;"
            "ec.generator_multiply(5);"
            "assert ec._generator_table.cache_info().currsize == 1"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS, ids=hex)
    def test_edge_scalars(self, scalar):
        assert ec.generator_multiply(scalar) == as_affine(naive_multiply(G, scalar % ec.N))
        point = naive_multiply(G, 0xC0FFEE)
        assert ec.point_multiply(ec.AffinePoint(*point), scalar) == as_affine(
            naive_multiply(point, scalar % ec.N)
        )

    def test_negative_scalar_is_taken_mod_n(self):
        point = ec.generator_multiply(99)
        assert ec.point_multiply(point, -1) == ec.AffinePoint(point.x, -point.y % ec.P)
        assert ec.generator_multiply(-1) == ec.generator_multiply(ec.N - 1)

    def test_infinity_in_infinity_out(self):
        point = ec.generator_multiply(0xABCDEF)
        assert ec.generator_multiply(ec.N).is_infinity
        assert ec.generator_multiply(0).is_infinity
        assert ec.point_multiply(point, ec.N).is_infinity
        assert ec.point_multiply(point, 0).is_infinity
        for scalar in (1, 2, 31, ec.N - 1, 1 << 255):
            assert ec.point_multiply(ec.INFINITY, scalar).is_infinity

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 256) - 1))
    def test_generator_multiply_matches_oracle(self, scalar):
        assert ec.generator_multiply(scalar) == as_affine(naive_multiply(G, scalar % ec.N))

    @settings(max_examples=25, deadline=None)
    @given(scalars, st.integers(min_value=0, max_value=(1 << 256) - 1))
    def test_point_multiply_matches_oracle(self, secret, scalar):
        point = naive_multiply(G, secret)
        assert ec.point_multiply(ec.AffinePoint(*point), scalar) == as_affine(
            naive_multiply(point, scalar % ec.N)
        )

    @settings(max_examples=15, deadline=None)
    @given(scalars, digests)
    def test_recover_and_verify_match_oracle(self, secret, digest):
        signature = ec.sign_digest(digest, secret)
        public = naive_multiply(G, secret)
        recovered = ec.recover_digest(digest, signature)
        assert recovered == as_affine(public)
        assert recovered == as_affine(naive_recover(digest, *signature))
        assert naive_verify(digest, signature.r, signature.s, public)

    @settings(max_examples=15, deadline=None)
    @given(scalars, scalars, st.integers(0, 1), digests)
    def test_arbitrary_rs_recover_matches_oracle(self, r, s, v, digest):
        try:
            expected = as_affine(naive_recover(digest, r, s, v))
        except InvalidPublicKey:  # no curve point has x == r
            with pytest.raises(InvalidSignature):
                ec.recover_digest(digest, ec.RawSignature(r, s, v))
            return
        recovered = ec.recover_digest(digest, ec.RawSignature(r, s, v))
        assert recovered == expected
        assert naive_verify(digest, r, s, recovered)

    def test_mixed_add_doubling_and_cancellation_branches(self):
        entry = ec._generator_table()[2][6]  # 7 * 16^2 * G
        x, y = entry
        z = 0xDEADBEEF  # the same point, in a non-trivial Jacobian form
        same = (x * z * z % ec.P, y * z**3 % ec.P, z)
        negated = (same[0], -same[1] % ec.P, z)
        assert ec._from_jacobian(ec._j_add_affine(same, entry)) == as_affine(
            naive_multiply(G, 2 * 7 * 16**2)
        )
        assert ec._from_jacobian(ec._j_add_affine(negated, entry)).is_infinity
        assert ec._from_jacobian(ec._j_add_affine(ec._J_INFINITY, entry)) == ec.AffinePoint(x, y)

    def test_verify_through_the_doubling_branch(self):
        # the hinted signer check is ECDSA verification plus R's parity.
        # Q = G, u1 = u2 = 5: both halves of u1*G + u2*Q meet at 5G.
        # r = x(10G) makes it a valid signature, so the hint G is returned.
        ten = naive_multiply(G, 10)
        r = ten[0] % ec.N
        s = r * pow(5, -1, ec.N) % ec.N
        digest = r.to_bytes(32, "big")  # z = r, so u1 = z/s = 5 = r/s = u2
        assert naive_verify(digest, r, s, G)
        signature = ec.RawSignature(r, s, ten[1] & 1)
        assert ec.recover_digest(digest, signature, ec.GENERATOR) is ec.GENERATOR

    def test_verify_through_the_cancellation_branch(self):
        # Q = G, s = 1, u2 = r = 5, u1 = z = N - 5: the sum is infinity
        digest = (ec.N - 5).to_bytes(32, "big")
        assert not naive_verify(digest, 5, 1, G)
        for parity in (0, 1):
            assert not ec._signed_by(ec.N - 5, 5, 1, 5, parity, ec.point_table(ec.GENERATOR))

    def test_recover_through_the_doubling_and_cancellation_branches(self):
        # R = 10G, s = r, z = -10r: (s/r)*R = 10G meets (-z/r)*G = 10G.  It is
        # the signature key 20 makes with nonce 10; the other parity of R
        # cancels to infinity instead.
        big_r = naive_multiply(G, 10)
        r = big_r[0] % ec.N
        digest = (-10 * r % ec.N).to_bytes(32, "big")
        parity = big_r[1] & 1
        assert ec.recover_digest(digest, ec.RawSignature(r, r, parity)) == as_affine(
            naive_multiply(G, 20)
        )
        with pytest.raises(InvalidSignature):
            ec.recover_digest(digest, ec.RawSignature(r, r, parity ^ 1))

    @pytest.mark.parametrize("digest", [bytes(32), ec.N.to_bytes(32, "big")], ids=["0", "N"])
    def test_recover_with_zero_digest_scalar(self, digest):
        # z == 0 (mod N): the G term of recover vanishes
        key = PrivateKey(0x5EED)
        signature = key.sign(digest)
        assert signature.recover(digest) == key.public_key
        assert naive_verify(digest, signature.r, signature.s, key.public_key.point)
        raw = ec.RawSignature(signature.r, signature.s, signature.v)
        assert ec.recover_digest(digest, raw) == as_affine(naive_recover(digest, *raw))

    def test_recover_with_high_x_recovery_ids(self):
        # v in {2, 3}: R.x = r + N, which only fits below P for tiny r
        digest = keccak256(b"high x")
        found = 0
        for r in range(1, 40):
            try:
                ec.solve_y(r + ec.N, 0)
            except InvalidPublicKey:
                continue
            found += 1
            for v in (2, 3):
                raw = ec.RawSignature(r, 0x1234567, v)
                recovered = ec.recover_digest(digest, raw)
                assert recovered == as_affine(naive_recover(digest, *raw))
                assert naive_verify(digest, raw.r, raw.s, recovered)
        assert found
        with pytest.raises(InvalidSignature):  # r + N >= P
            ec.recover_digest(digest, ec.RawSignature(ec.P - ec.N, 1, 2))


def with_examples(values):
    """``@example(v)`` for every ``v``: named scalars run before the random ones."""

    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test

    return decorate


#: (k1, k2) halves that are zero, negative or both; the split returns
#: exactly these for ``k = k1 + k2 * lambda``
SIGNED_HALVES = [
    (0, 1), (0, -1), (1, 0), (-1, 0), (5, -7), (-5, 7), (0, 1 << 100),
    (0, -(1 << 100)), (-(1 << 100), 0), (-(1 << 127), 3), (-(1 << 126), -(1 << 126)),
]


class TestGLV:
    """The endomorphism split behind ``k*P``, from first principles."""

    def test_lambda_and_beta_are_paired_cube_roots_of_unity(self):
        assert pow(ec._LAMBDA, 3, ec.N) == 1 and ec._LAMBDA != 1
        assert pow(ec._BETA, 3, ec.P) == 1 and ec._BETA != 1
        assert naive_multiply(G, ec._LAMBDA) == (ec._BETA * ec.GX % ec.P, ec.GY)

    def test_basis_spans_the_kernel_lattice(self):
        a1, b1, a2, b2 = ec._A1, ec._B1, ec._A2, ec._B2
        assert (a1 + b1 * ec._LAMBDA) % ec.N == 0
        assert (a2 + b2 * ec._LAMBDA) % ec.N == 0
        assert abs(a1 * b2 - a2 * b1) == ec.N  # a basis, not a sublattice
        assert all(abs(v) < 1 << 129 for v in (a1, b1, a2, b2))

    @with_examples(scalar % ec.N for scalar in EDGE_SCALARS)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=ec.N - 1))
    def test_split_recombines_into_two_short_halves(self, scalar):
        k1, k2 = ec._split_scalar(scalar)
        assert (k1 + k2 * ec._LAMBDA - scalar) % ec.N == 0
        assert abs(k1) < 1 << 129 and abs(k2) < 1 << 129

    @pytest.mark.parametrize("halves", SIGNED_HALVES, ids=str)
    def test_zero_and_negative_halves_match_oracle(self, halves):
        scalar = (halves[0] + halves[1] * ec._LAMBDA) % ec.N
        assert ec._split_scalar(scalar) == halves
        point = naive_multiply(G, 0xBEEF)
        assert ec.point_multiply(ec.AffinePoint(*point), scalar) == as_affine(
            naive_multiply(point, scalar)
        )

    @pytest.mark.parametrize(
        "point",
        [ec.AffinePoint(1, 1), ec.AffinePoint(ec.GX, ec.GY + 1), ec.AffinePoint(ec.GX + ec.P, ec.GY)],
        ids=["(1,1)", "y+1", "x+P"],
    )
    def test_off_curve_point_is_refused(self, point):
        with pytest.raises(InvalidPublicKey):
            ec.point_multiply(point, 12345)

    @with_examples(EDGE_SCALARS)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 256) - 1))
    def test_at_most_131_doublings_per_multiply(self, scalar):
        doublings = 0
        double = ec._j_double

        def counting(point):
            nonlocal doublings
            doublings += 1
            return double(point)

        point = ec.generator_multiply(0xD0B1E)
        with mock.patch.object(ec, "_j_double", counting):
            ec.point_multiply(point, scalar)
        assert doublings <= 131


def outcome(call):
    """``call()``'s value, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- the type is the comparison
        return type(exc)


#: ways to damage a recoverable signature ``(r, s, v)``: the recovery id's
#: parity, its high-x bit, r or s at and past the range ends, and an
#: ``x = r + N`` at or past P
SIGNATURE_DAMAGE = {
    "as signed": lambda r, s, v: (r, s, v),
    "flipped v": lambda r, s, v: (r, s, v ^ 1),
    "v in {2, 3}": lambda r, s, v: (r, s, v | 2),
    "r = 0": lambda r, s, v: (0, s, v),
    "s = 0": lambda r, s, v: (r, 0, v),
    "r = N": lambda r, s, v: (ec.N, s, v),
    "s >= N": lambda r, s, v: (r, ec.N + s, v),
    "x >= P": lambda r, s, v: (ec.P - ec.N, s, 2 | v),
}


def small_x_signature(digest, v):
    """A signature whose ``R`` has ``x = r`` small enough that ``r + N`` is
    below P too, and the key it recovers to with recovery id ``v``."""
    r = next(r for r in range(1, 64) if outcome(lambda: ec.solve_y(r, 0)) is not InvalidPublicKey)
    raw = ec.RawSignature(r, 0x1234567, v)
    return Signature(raw), PublicKey(ec.recover_digest(digest, raw))


class TestHintedRecovery:
    """``recover(digest, expected=K)`` checks ``K`` with one ``a*G + b*Q``
    and returns exactly what the full recovery returns, or raises as it does."""

    @settings(max_examples=30, deadline=None)
    @given(scalars, scalars, digests, st.sampled_from(sorted(SIGNATURE_DAMAGE)))
    def test_a_hint_never_changes_the_result(self, secret, other, digest, damage):
        signer = PrivateKey(secret)
        signature = signer.sign(digest)
        raw = ec.RawSignature(*SIGNATURE_DAMAGE[damage](signature.r, signature.s, signature.v))
        damaged = Signature(raw)
        plain = outcome(lambda: damaged.recover(digest))
        point = signer.public_key.point
        negation = PublicKey(ec.AffinePoint(point.x, -point.y % ec.P))
        for hint in (signer.public_key, PrivateKey(other).public_key, negation, None):
            assert outcome(lambda: damaged.recover(digest, expected=hint)) == plain
            assert outcome(lambda: ec.recover_digest(digest, raw, hint and hint.point)) == (
                plain.point if isinstance(plain, PublicKey) else plain
            )
        if damage == "as signed":
            assert plain == signer.public_key

    def test_the_signer_is_returned_itself(self):
        key = PrivateKey(0xA11CE)
        digest = keccak256(b"hinted")
        expected = key.public_key
        assert key.sign(digest).recover(digest, expected=expected) is expected

    def test_the_other_parity_of_r_is_not_the_signer(self):
        # (r, s) with the parity of -R: ECDSA verification accepts it for the
        # signer, recovery yields another key -- the hint must not hide that
        key = PrivateKey(0xB0B)
        digest = keccak256(b"parity")
        signature = key.sign(digest)
        flipped = Signature(ec.RawSignature(signature.r, signature.s, signature.v ^ 1))
        assert naive_verify(digest, flipped.r, flipped.s, key.public_key.point)
        recovered = flipped.recover(digest)
        assert recovered != key.public_key
        assert flipped.recover(digest, expected=key.public_key) == recovered

    @pytest.mark.parametrize("v", [0, 1])
    def test_a_high_x_recovery_id_is_not_the_low_x_signer(self, v):
        # x = r names one R, x = r + N another: a hint that signed with
        # (r, s, v) is not the signer of (r, s, v | 2)
        digest = keccak256(b"high x hint")
        low, signer = small_x_signature(digest, v)
        assert low.recover(digest, expected=signer) is signer
        high = Signature(ec.RawSignature(low.r, low.s, v | 2))
        plain = outcome(lambda: high.recover(digest))
        assert plain != signer
        assert outcome(lambda: high.recover(digest, expected=signer)) == plain

    def test_each_key_keeps_its_own_table(self):
        a, b = PrivateKey(0xAAAA), PrivateKey(0xBBBB)
        digest = keccak256(b"tables")
        by_a, by_b = a.sign(digest), b.sign(digest)
        assert by_a.recover(digest, expected=a.public_key) is a.public_key  # fills a's table
        assert by_a.recover(digest, expected=b.public_key) == a.public_key
        assert by_b.recover(digest, expected=a.public_key) == b.public_key
        assert by_b.recover(digest, expected=b.public_key) is b.public_key


class TestKnownAnswers:
    """Published vectors (tests/vectors/secp256k1.json)."""

    @pytest.mark.parametrize(
        "vector", VECTORS["generator_multiples"]["vectors"], ids=lambda v: v["k"].lstrip("0")[:12]
    )
    def test_generator_multiples(self, vector):
        k, x, y = (int(vector[name], 16) for name in ("k", "x", "y"))
        assert ec.generator_multiply(k) == ec.AffinePoint(x, y)
        assert ec.point_multiply(ec.GENERATOR, k) == ec.AffinePoint(x, y)

    @pytest.mark.parametrize(
        "vector", VECTORS["rfc6979_signatures"]["vectors"], ids=lambda v: v["message"][:16]
    )
    def test_rfc6979_signatures(self, vector):
        key = PrivateKey(int(vector["private_key"], 16))
        digest = hashlib.sha256(vector["message"].encode()).digest()
        signature = key.sign(digest)
        assert (signature.r, signature.s) == (int(vector["r"], 16), int(vector["s"], 16))
        assert signature.recover(digest) == key.public_key
        assert naive_verify(digest, signature.r, signature.s, key.public_key.point)


class TestPointCodec:
    def test_uncompressed_roundtrip(self):
        point = ec.generator_multiply(999)
        assert ec.decode_point(ec.encode_point(point)) == point

    def test_compressed_roundtrip(self):
        for scalar in (1, 2, 3, 999, ec.N - 1):
            point = ec.generator_multiply(scalar)
            assert ec.decode_point(ec.encode_point(point, compressed=True)) == point

    def test_raw_64_byte_node_id(self):
        point = ec.generator_multiply(424242)
        raw = point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
        assert ec.decode_point(raw) == point

    def test_off_curve_rejected(self):
        with pytest.raises(InvalidPublicKey):
            ec.decode_point(b"\x04" + b"\x01" * 64)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidPublicKey):
            ec.decode_point(b"\x04" + b"\x01" * 10)

    def test_infinity_not_encodable(self):
        with pytest.raises(InvalidPublicKey):
            ec.encode_point(ec.INFINITY)


class TestECDSA:
    def test_sign_verify_roundtrip(self):
        key = PrivateKey(0xDEADBEEF)
        digest = keccak256(b"message")
        signature = key.sign(digest)
        assert naive_verify(digest, signature.r, signature.s, key.public_key.point)

    # the hinted signer check is the product's one ECDSA verification
    def test_wrong_digest_fails(self):
        key = PrivateKey(0xDEADBEEF)
        signature = key.sign(keccak256(b"message"))
        assert signature.recover(keccak256(b"other"), expected=key.public_key) != key.public_key

    def test_wrong_key_fails(self):
        key = PrivateKey(0xDEADBEEF)
        digest = keccak256(b"message")
        signature = key.sign(digest)
        other = PrivateKey(0xCAFE).public_key
        assert signature.recover(digest, expected=other) == key.public_key

    def test_low_s_normalisation(self):
        key = PrivateKey(7)
        for index in range(8):
            signature = key.sign(keccak256(bytes([index])))
            assert signature.s <= ec.N // 2

    def test_signature_deterministic(self):
        key = PrivateKey(42)
        digest = keccak256(b"rfc6979")
        assert key.sign(digest).to_bytes() == key.sign(digest).to_bytes()

    def test_recovery(self):
        key = PrivateKey(0x123456789)
        digest = keccak256(b"recover me")
        signature = key.sign(digest)
        assert signature.recover(digest) == key.public_key

    @settings(max_examples=8, deadline=None)
    @given(scalars, st.binary(min_size=1, max_size=64))
    def test_recovery_property(self, secret, message):
        key = PrivateKey(secret)
        digest = keccak256(message)
        assert key.sign(digest).recover(digest) == key.public_key

    def test_signature_byte_roundtrip(self):
        key = PrivateKey(5)
        signature = key.sign(keccak256(b"x"))
        assert Signature.from_bytes(signature.to_bytes()).to_bytes() == signature.to_bytes()

    def test_signature_v27_accepted(self):
        # Ethereum tx-style recovery ids 27/28, both parities
        key = PrivateKey(5)
        seen = set()
        for index in range(64):
            digest = keccak256(bytes([index]))
            signature = key.sign(digest)
            raw = bytearray(signature.to_bytes())
            raw[64] += 27
            parsed = Signature.from_bytes(bytes(raw))
            assert parsed.to_bytes() == signature.to_bytes()
            assert parsed.recover(digest) == key.public_key
            seen.add(signature.v)
            if seen == {0, 1}:
                break
        assert seen == {0, 1}

    def test_signature_v_range(self):
        body = bytes(31) + b"\x01" + bytes(31) + b"\x01"
        for byte, v in ((0, 0), (3, 3), (27, 0), (28, 1), (29, 2), (30, 3)):
            assert Signature.from_bytes(body + bytes([byte])).v == v
        for byte in (4, 26, 31, 255):
            with pytest.raises(InvalidSignature):
                Signature.from_bytes(body + bytes([byte]))

    def test_malformed_signature_rejected(self):
        with pytest.raises(InvalidSignature):
            Signature.from_bytes(b"\x00" * 64)
        with pytest.raises(InvalidSignature):
            Signature.from_bytes(b"\x00" * 64 + b"\x09")

    def test_bad_digest_length(self):
        key = PrivateKey(5)
        with pytest.raises(InvalidSignature):
            key.sign(b"short")

    def test_zero_rs_rejected_on_recovery(self):
        with pytest.raises(InvalidSignature):
            ec.recover_digest(b"\x00" * 32, ec.RawSignature(0, 1, 0))
        with pytest.raises(InvalidSignature):
            ec.recover_digest(b"\x00" * 32, ec.RawSignature(1, 0, 0))


class TestCrossValidation:
    """Check against the `cryptography` package's secp256k1."""

    def test_ecdsa_interop(self):
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric.utils import (
            Prehashed,
            encode_dss_signature,
        )

        key = PrivateKey(0xA5A5A5A5)
        digest = keccak256(b"interop")
        signature = key.sign(digest)
        ckey = cec.derive_private_key(key.secret, cec.SECP256K1())
        ckey.public_key().verify(
            encode_dss_signature(signature.r, signature.s),
            digest,
            cec.ECDSA(Prehashed(hashes.SHA256())),
        )

    @settings(max_examples=6, deadline=None)
    @given(scalars)
    @example(0x1337)
    def test_public_key_interop(self, secret):
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        key = PrivateKey(secret)
        ckey = cec.derive_private_key(key.secret, cec.SECP256K1())
        numbers = ckey.public_key().public_numbers()
        assert (numbers.x, numbers.y) == (key.public_key.point.x, key.public_key.point.y)

    @settings(max_examples=6, deadline=None)
    @given(scalars, scalars)
    @example(111, 222)
    def test_ecdh_interop(self, a, b):
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        ours_a, ours_b = PrivateKey(a), PrivateKey(b)
        theirs_a = cec.derive_private_key(a, cec.SECP256K1())
        theirs_b = cec.derive_private_key(b, cec.SECP256K1())
        expected = theirs_a.exchange(cec.ECDH(), theirs_b.public_key())
        assert ours_a.ecdh(ours_b.public_key) == expected


class TestECDH:
    def test_symmetry(self):
        alice, bob = PrivateKey(314159), PrivateKey(271828)
        assert alice.ecdh(bob.public_key) == bob.ecdh(alice.public_key)

    @settings(max_examples=8, deadline=None)
    @given(scalars, scalars)
    def test_symmetry_property(self, a, b):
        ka, kb = PrivateKey(a), PrivateKey(b)
        assert ka.ecdh(kb.public_key) == kb.ecdh(ka.public_key)


class TestKeyObjects:
    def test_private_key_range(self):
        with pytest.raises(InvalidPrivateKey):
            PrivateKey(0)
        with pytest.raises(InvalidPrivateKey):
            PrivateKey(ec.N)

    def test_non_canonical_public_key_rejected(self):
        # used to be accepted, compare unequal to G, and die in to_bytes()
        with pytest.raises(InvalidPublicKey):
            PublicKey(ec.AffinePoint(ec.GX + ec.P, ec.GY))
        with pytest.raises(InvalidPublicKey):
            PublicKey(ec.INFINITY)
        with pytest.raises(InvalidPublicKey):
            ec.ecdh(1, ec.AffinePoint(ec.GX, ec.GY + ec.P))

    def test_key_byte_roundtrip(self):
        key = PrivateKey(0xABCDEF)
        assert PrivateKey.from_bytes(key.secret.to_bytes(32, "big")).secret == key.secret

    def test_public_key_byte_roundtrip(self):
        key = PrivateKey(99)
        public = key.public_key
        assert PublicKey.from_bytes(public.to_bytes()) == public
        assert PublicKey.from_bytes(ec.encode_point(public.point, compressed=True)) == public
        assert PublicKey.from_bytes(public.to_sec1_bytes()) == public

    def test_node_id_is_64_bytes(self):
        assert len(PrivateKey(7).public_key.to_bytes()) == 64

    def test_generate_produces_valid_keys(self):
        key = PrivateKey.generate()
        digest = keccak256(b"fresh")
        signature = key.sign(digest)
        assert naive_verify(digest, signature.r, signature.s, key.public_key.point)

    def test_repr_redacts_secret(self):
        assert "redacted" in repr(PrivateKey(12345))
        assert "12345" not in repr(PrivateKey(12345))
