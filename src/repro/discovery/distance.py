"""Kademlia distance metrics: Geth's correct one and Parity's buggy one.

RLPx distance is computed on the Keccak-256 hashes of the 512-bit node IDs,
not the IDs themselves (paper §2.1).  Geth implements

``ld_G(a, b) = bit_length(H(a) XOR H(b))``

i.e. 256 minus the number of leading zero bits — 257 possible values
(0..256), hence the paper's "257 distinct node buckets".

Parity (paper §6.3, Appendix A) instead iterates over the 32 bytes of the
XOR and sums the bit length of *every* byte:

``ld_P(a, b) = sum(bit_length(xor_byte_i) for i in 0..32)``

Because each non-leading byte contributes its own bit length (at most 8)
rather than a fixed 8, ``ld_P <= ld_G`` always, with equality exactly when
every byte below the leading byte has its top bit set — in particular for
all-ones XOR values ``2^ld_G - 1`` (the paper's Equation 1 pattern).  Under
Parity's metric, uniformly random node pairs concentrate around distance
~224 instead of ~256, so Parity nodes answer FIND_NODE queries from buckets
Geth never expects, degrading discovery between the two client populations
(Figure 11 / §6.3).
"""

from __future__ import annotations

#: Number of distinct Geth log-distance values (0..256).
NUM_DISTANCES = 257

#: byte -> its bit length, as a ``bytes.translate`` table
_BYTE_BIT_LENGTHS = bytes(byte.bit_length() for byte in range(256))


def xor_distance(hash_a: bytes, hash_b: bytes) -> int:
    """Raw Kademlia XOR distance between two 32-byte hashes, as an integer."""
    _check_hash(hash_a)
    _check_hash(hash_b)
    return int.from_bytes(hash_a, "big") ^ int.from_bytes(hash_b, "big")


def log_distance_of_xor(xor_value: int) -> int:
    """Geth's log distance of a raw XOR value: its bit length (0..256)."""
    if xor_value < 0 or xor_value >= 1 << 256:
        raise ValueError("xor value out of 256-bit range")
    return xor_value.bit_length()


def geth_log_distance(hash_a: bytes, hash_b: bytes) -> int:
    """Geth's (correct) log distance between two 32-byte ID hashes."""
    return log_distance_of_xor(xor_distance(hash_a, hash_b))


def parity_log_distance(hash_a: bytes, hash_b: bytes) -> int:
    """Parity's (buggy) log distance: per-byte bit lengths, summed.

    The Rust in the paper's Appendix A shifts each of the 32 XOR bytes
    right until zero, counting shifts; here that is one 256-bit XOR and a
    table lookup per byte (the byte loop is kept as the reference in
    tests/test_discovery_distance.py).
    """
    return parity_log_distance_of_xor(xor_distance(hash_a, hash_b))


def parity_log_distance_of_xor(xor_value: int) -> int:
    """Parity's log distance of a raw 256-bit XOR value."""
    return sum(xor_value.to_bytes(32, "big").translate(_BYTE_BIT_LENGTHS))


def _check_hash(value: bytes) -> None:
    if len(value) != 32:
        raise ValueError(f"ID hash must be 32 bytes, got {len(value)}")
