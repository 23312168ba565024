"""Known-answer and property tests for Keccak-256."""

import hashlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.keccak as keccak_mod
from repro.crypto._keccak_f import PAIR, PAIR_SHIFT
from repro.crypto.keccak import (
    Keccak256,
    KeccakMemo,
    KeccakSponge,
    keccak256,
    keccak256_batch,
    keccak256_pair,
    keccak_f1600,
    keccak_f1600_reference,
)

# Official Keccak (pre-NIST padding) vectors.
VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
    (
        b"The quick brown fox jumps over the lazy dog.",
        "578951e24efd62a3d63a86f7cd19aaa53c898fe287d2552133220370240b572d",
    ),
]


@pytest.mark.parametrize("message,expected", VECTORS)
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_differs_from_nist_sha3():
    """Ethereum Keccak-256 is NOT FIPS-202 SHA3-256."""
    assert keccak256(b"") != hashlib.sha3_256(b"").digest()


def test_streaming_equals_oneshot():
    hasher = Keccak256()
    hasher.update(b"The quick brown fox ")
    hasher.update(b"jumps over the lazy dog")
    assert hasher.digest() == keccak256(b"The quick brown fox jumps over the lazy dog")


def test_digest_is_nondestructive():
    hasher = Keccak256(b"abc")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b"def")
    assert hasher.digest() == keccak256(b"abcdef")


def test_digest_is_memoised_until_the_state_changes(monkeypatch):
    calls = []
    permutation = keccak_mod.keccak_f1600

    def counting(state):
        calls.append(1)
        return permutation(state)

    monkeypatch.setattr(keccak_mod, "keccak_f1600", counting)
    hasher = Keccak256(b"abc")
    first = hasher.digest()
    assert len(calls) == 1
    assert hasher.update(b"").digest() is first and len(calls) == 1
    hasher.update(b"def")
    assert hasher.digest() == keccak256(b"abcdef") and len(calls) == 3
    assert hasher.digest() is hasher.digest() and len(calls) == 3


def test_input_crossing_rate_boundary():
    # rate is 136 bytes; exercise sizes around it
    for size in (135, 136, 137, 271, 272, 273, 1000):
        data = bytes(range(256))[:1] * size
        whole = keccak256(data)
        hasher = Keccak256()
        for offset in range(0, size, 7):
            hasher.update(data[offset : offset + 7])
        assert hasher.digest() == whole


def test_invalid_sponge_rate():
    with pytest.raises(ValueError):
        KeccakSponge(rate_bytes=7, output_bytes=32)
    with pytest.raises(ValueError):
        KeccakSponge(rate_bytes=0, output_bytes=32)


_LANE_MASK = (1 << 64) - 1
_STATES = st.lists(st.integers(min_value=0, max_value=_LANE_MASK), min_size=25, max_size=25)


def _two_state(first, second):
    """Both states through one call of the generated permutation."""
    lanes = keccak_f1600([a | b << PAIR_SHIFT for a, b in zip(first, second)], *PAIR)
    return [lane & _LANE_MASK for lane in lanes], [lane >> PAIR_SHIFT for lane in lanes]


#: all-zero, all-ones, every lane 1 << 63, lane i holding bit i, and a
#: single-bit lane (bits 0 and 63) at every position
_EDGE_STATES = [
    [0] * 25,
    [_LANE_MASK] * 25,
    [1 << 63] * 25,
    [1 << i for i in range(25)],
] + [
    [1 << bit if i == lane else 0 for i in range(25)]
    for lane in range(25)
    for bit in (0, 63)
]


@settings(max_examples=20)
@given(_STATES)
def test_unrolled_permutation_matches_reference(state):
    assert keccak_f1600(list(state)) == keccak_f1600_reference(list(state))


@settings(max_examples=20, deadline=None)
@given(_STATES, _STATES)
def test_two_state_permutation_matches_reference(first, second):
    assert _two_state(first, second) == (
        keccak_f1600_reference(list(first)),
        keccak_f1600_reference(list(second)),
    )


@pytest.mark.parametrize("index", range(len(_EDGE_STATES)))
def test_edge_states_match_reference(index):
    state = _EDGE_STATES[index]
    expected = keccak_f1600_reference(list(state))
    assert keccak_f1600(list(state)) == expected
    complement = [lane ^ _LANE_MASK for lane in state]
    expected_complement = keccak_f1600_reference(list(complement))
    assert _two_state(state, complement) == (expected, expected_complement)
    assert _two_state(complement, state) == (expected_complement, expected)


#: around one, two and three rate blocks, and the largest discv4 datagram
_PAIR_LENGTHS = (0, 1, 134, 135, 136, 137, 271, 272, 273, 1279)


@pytest.mark.parametrize("first_length", _PAIR_LENGTHS)
def test_pair_equals_two_single_hashes(first_length):
    rng = random.Random(first_length)
    first = rng.randbytes(first_length)
    expected_first = Keccak256(first).digest()
    for second_length in _PAIR_LENGTHS:
        second = rng.randbytes(second_length)
        expected = (expected_first, Keccak256(second).digest())
        assert keccak256_pair(first, second) == expected
        assert (keccak256(first), keccak256(second)) == expected


def test_pair_leaves_its_inputs_alone():
    first, second = bytearray(b"a" * 140), bytearray(b"b" * 3)
    keccak256_pair(first, second)
    assert (first, second) == (b"a" * 140, b"b" * 3)


@settings(max_examples=40)
@given(st.binary(max_size=600), st.integers(min_value=1, max_value=16))
def test_chunked_update_equals_oneshot(data, chunk):
    hasher = Keccak256()
    for offset in range(0, len(data), chunk):
        hasher.update(data[offset : offset + chunk])
    assert hasher.digest() == keccak256(data)


@settings(max_examples=20)
@given(st.lists(st.binary(max_size=135), max_size=40))
def test_batch_equals_scalar(payloads):
    assert keccak256_batch(payloads) == [keccak256(p) for p in payloads]


def test_batch_boundary_lengths():
    # every single-block length, incl. the 0x81 shared-pad byte at 135
    payloads = [bytes([i % 251] * n) for i, n in enumerate(range(136))]
    assert keccak256_batch(payloads) == [keccak256(p) for p in payloads]


def test_batch_falls_back_on_multiblock_payloads():
    payloads = [b"short", b"x" * 136, b"y" * 500]
    assert keccak256_batch(payloads) == [keccak256(p) for p in payloads]


def test_batch_empty():
    assert keccak256_batch([]) == []


#: the last single-block length, the first two-block one, and the same
#: pair one block up: where the pad byte and the block count change
_BLOCK_BOUNDARIES = (135, 136, 271, 272)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.binary(max_size=700), max_size=12),
    # copies of each boundary length: groups on both sides of the crossover
    st.sampled_from([1, 16, 23, 24, 25, 40]),
    st.integers(min_value=0, max_value=1 << 32),
)
def test_batch_equals_scalar_across_block_counts(extra, copies, seed):
    rng = random.Random(seed)
    assert 15 < keccak_mod._BATCH_CROSSOVER < 40
    payloads = extra + [
        rng.randbytes(length) for length in _BLOCK_BOUNDARIES for _ in range(copies)
    ]
    rng.shuffle(payloads)
    assert keccak256_batch(payloads) == [keccak256(p) for p in payloads]


def test_batch_vectorises_multiblock_groups():
    # four-block messages (genesis headers) above the crossover take the
    # numpy path, a small group beside them the scalar one
    payloads = [
        bytes([i]) * 540 for i in range(keccak_mod._BATCH_CROSSOVER)
    ] + [b"solo" * 50]
    with mock.patch.object(
        keccak_mod, "_absorb_batch", wraps=keccak_mod._absorb_batch
    ) as absorb:
        assert keccak256_batch(payloads) == [keccak256(p) for p in payloads]
    assert [call.args[1] for call in absorb.call_args_list] == [4]


class TestKeccakMemo:
    def test_miss_hashes_and_hit_is_cached(self):
        memo = KeccakMemo(limit=8)
        assert memo[b"abc"] == keccak256(b"abc")
        assert dict(memo) == {b"abc": keccak256(b"abc")}
        assert memo.__getitem__(b"abc") is memo[b"abc"]

    def test_payload_function_maps_keys(self):
        memo = KeccakMemo(8, lambda key: key[0] + bytes([key[1]]))
        assert memo[b"k", 7] == keccak256(b"k\x07")
        assert memo.warm([(b"k", 7), (b"k", 8)]) == 1
        assert memo[b"k", 8] == keccak256(b"k\x08")

    def test_warm_matches_lazy_and_skips_cached(self):
        keys = [bytes([i]) * 64 for i in range(40)]
        memo = KeccakMemo(limit=100)
        assert memo.warm(keys + keys[:5]) == 40
        assert memo.warm(keys) == 0
        assert all(memo[key] == keccak256(key) for key in keys)

    def test_limit_is_hard_on_both_paths(self):
        memo = KeccakMemo(limit=10)
        memo.warm(bytes([i]) for i in range(8))
        fresh = [bytes([100 + i]) for i in range(5)]
        assert memo.warm(fresh) == 5  # 8 + 5 > 10: evict, then insert
        assert len(memo) <= 10 and all(key in memo for key in fresh)
        for i in range(30):
            memo[bytes([200, i])]
            assert len(memo) <= 10
        # a single warm larger than the cap keeps only what fits
        assert memo.warm(bytes([i, i]) for i in range(25)) == 10
        assert len(memo) == 10
