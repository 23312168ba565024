"""Distance-metric tests: Geth vs Parity (paper §6.3, Figure 11, Eq. 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keccak import keccak256
from repro.discovery.distance import (
    NUM_DISTANCES,
    bucket_index,
    geth_log_distance,
    geth_log_distance_ids,
    log_distance_of_xor,
    parity_log_distance,
    parity_log_distance_ids,
    xor_distance,
)

hashes = st.binary(min_size=32, max_size=32)


class TestGethMetric:
    def test_self_distance_zero(self):
        value = keccak256(b"a")
        assert geth_log_distance(value, value) == 0

    def test_symmetric(self):
        a, b = keccak256(b"a"), keccak256(b"b")
        assert geth_log_distance(a, b) == geth_log_distance(b, a)

    def test_adjacent_values(self):
        base = b"\x00" * 32
        one = b"\x00" * 31 + b"\x01"
        assert geth_log_distance(base, one) == 1

    def test_max_distance(self):
        low = b"\x00" * 32
        high = b"\x80" + b"\x00" * 31
        assert geth_log_distance(low, high) == 256

    def test_257_possible_values(self):
        # distances live in [0, 256]
        assert NUM_DISTANCES == 257
        assert log_distance_of_xor(0) == 0
        assert log_distance_of_xor((1 << 256) - 1) == 256

    def test_out_of_range_xor(self):
        with pytest.raises(ValueError):
            log_distance_of_xor(1 << 256)
        with pytest.raises(ValueError):
            log_distance_of_xor(-1)

    def test_bad_hash_length(self):
        with pytest.raises(ValueError):
            geth_log_distance(b"\x00" * 31, b"\x00" * 32)

    @given(hashes, hashes)
    def test_symmetry_property(self, a, b):
        assert geth_log_distance(a, b) == geth_log_distance(b, a)

    @given(hashes, hashes, hashes)
    def test_xor_triangle_unity(self, a, b, c):
        """d(a,c) <= max over the XOR metric: xor distances form a group."""
        assert xor_distance(a, c) == xor_distance(a, b) ^ xor_distance(b, c)


class TestParityMetric:
    def test_self_distance_zero(self):
        value = keccak256(b"a")
        assert parity_log_distance(value, value) == 0

    def test_sums_byte_bit_lengths(self):
        a = b"\x00" * 32
        b = b"\xff" * 32  # every byte has bit length 8
        assert parity_log_distance(a, b) == 256

    def test_differs_from_geth_on_sparse_xor(self):
        a = b"\x00" * 32
        b = b"\x80" + b"\x00" * 31  # single top bit set
        assert geth_log_distance(a, b) == 256
        assert parity_log_distance(a, b) == 8

    @given(hashes, hashes)
    def test_symmetry_property(self, a, b):
        assert parity_log_distance(a, b) == parity_log_distance(b, a)

    @given(hashes, hashes)
    def test_matches_appendix_a_byte_loop(self, a, b):
        """The XOR-and-table form equals the paper's Appendix A loop: for
        each of the 32 XOR bytes, shift right until zero, counting."""
        total = 0
        for byte_a, byte_b in zip(a, b):
            xor_byte = byte_a ^ byte_b
            while xor_byte:
                xor_byte >>= 1
                total += 1
        assert parity_log_distance(a, b) == total

    @pytest.mark.parametrize("size", [31, 33])
    def test_bad_hash_length(self, size):
        with pytest.raises(ValueError):
            parity_log_distance(b"\x00" * size, b"\x00" * 32)
        with pytest.raises(ValueError):
            parity_log_distance(b"\x00" * 32, b"\x00" * size)

    @given(hashes, hashes)
    def test_parity_never_exceeds_geth(self, a, b):
        """ld_P <= ld_G for every pair (each lower byte contributes <= 8)."""
        assert parity_log_distance(a, b) <= geth_log_distance(a, b)

    @given(st.integers(min_value=0, max_value=256))
    def test_equation_1_all_ones_pattern(self, bits):
        """Paper Eq. 1 (⟸): XOR of 2^n - 1 makes the metrics agree."""
        a = b"\x00" * 32
        b = ((1 << bits) - 1).to_bytes(32, "big")
        assert parity_log_distance(a, b) == geth_log_distance(a, b) == bits

    @given(hashes, hashes)
    def test_equality_requires_saturated_lower_bytes(self, a, b):
        """ld_P == ld_G iff every byte below the leading XOR byte has its
        top bit set (the general form of the paper's Equation 1)."""
        xor_bytes = bytes(x ^ y for x, y in zip(a, b))
        equal = parity_log_distance(a, b) == geth_log_distance(a, b)
        leading = next((i for i, v in enumerate(xor_bytes) if v), None)
        if leading is None:
            assert equal  # both zero
        else:
            saturated = all(v >= 0x80 for v in xor_bytes[leading + 1 :])
            assert equal == saturated


class TestDistributions:
    """The Figure 11 phenomenon at small scale."""

    def test_geth_concentrates_at_256(self):
        import random

        rng = random.Random(11)
        distances = [
            geth_log_distance_ids(rng.randbytes(64), rng.randbytes(64))
            for _ in range(300)
        ]
        # P(d=256) = 1/2, P(d>=254) = 7/8
        assert sum(1 for d in distances if d == 256) > 100
        assert min(distances) > 200  # astronomically unlikely to be lower

    def test_parity_concentrates_near_224(self):
        import random

        rng = random.Random(13)
        distances = [
            parity_log_distance_ids(rng.randbytes(64), rng.randbytes(64))
            for _ in range(300)
        ]
        mean = sum(distances) / len(distances)
        # E[bit length of a random byte] = 1793/256 ≈ 7.004 → mean ≈ 224
        assert 218 < mean < 230
        assert max(distances) < 256 or distances.count(256) <= 1


class TestBucketIndex:
    def test_full_table(self):
        a, b = keccak256(b"a"), keccak256(b"b")
        assert bucket_index(a, b) == geth_log_distance(a, b)

    def test_collapsed_table(self):
        a, b = keccak256(b"a"), keccak256(b"b")
        # Geth in practice uses 17 buckets; distances <= 239 share bucket 0.
        index = bucket_index(a, b, num_buckets=17)
        assert 0 <= index <= 16
        assert index == max(0, geth_log_distance(a, b) - 240)

    @given(hashes, hashes)
    def test_collapsed_index_in_range(self, a, b):
        assert 0 <= bucket_index(a, b, num_buckets=17) <= 16
