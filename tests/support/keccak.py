"""The reference Keccak-f[1600] permutation: the oracle of the generated one.

``repro.crypto._keccak_f`` generates the production permutation from its
own copy of the round constants and rotation offsets.  This module keeps
a separate copy, typed from the specification, so a typo in either table
makes the two disagree.
"""

_MASK = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# Rotation offsets for the rho step, indexed x + 5*y.
_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

# pi step destination: lane (x, y) moves to (y, 2x + 3y).  Precompute the
# source index for each destination index.
_PI_SOURCES = tuple(
    (x + 3 * y) % 5 + 5 * x for y in range(5) for x in range(5)
)


def _rol(value: int, shift: int) -> int:
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK


def keccak_f1600_reference(state: list[int]) -> list[int]:
    """Apply the 24-round Keccak-f[1600] permutation to 25 64-bit lanes.

    Readable spec-shaped implementation, kept as the oracle; production code
    routes through ``keccak_f1600``, generated in
    :mod:`repro.crypto._keccak_f`, which also permutes two states at once.
    """
    a = state
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [
            a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]
            for x in range(5)
        ]
        d = [c[(x - 1) % 5] ^ _rol(c[(x + 1) % 5], 1) for x in range(5)]
        a = [a[i] ^ d[i % 5] for i in range(25)]
        # rho and pi combined
        b = [0] * 25
        for i in range(25):
            src = _PI_SOURCES[i]
            b[i] = _rol(a[src], _ROTATIONS[src])
        # chi
        a = [
            b[i] ^ ((~b[(i % 5 + 1) % 5 + 5 * (i // 5)]) & _MASK
                    & b[(i % 5 + 2) % 5 + 5 * (i // 5)])
            for i in range(25)
        ]
        # iota
        a[0] ^= rc
    return a
