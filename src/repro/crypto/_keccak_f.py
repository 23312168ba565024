"""Keccak-f[1600] permutation on periodic lanes, generated a block at a time.

The readable round-loop implementation, the tests' oracle, lives in
``tests/support/keccak.py``; this module generates the permutation
function at import time, with the lanes held in locals and all five steps
inlined per round.  The source unrolls one block of ``ROUNDS_PER_REFRESH``
rounds, looped over the first seven blocks' round constants, and a peeled
final block that ends in ``& M``: 390 lines, where unrolling all 24 rounds
takes 1 469 whose compile alone peaks at ≈8.5 MB, paid at every start.

Each 64-bit lane ``v`` is carried as ``COPIES`` back-to-back copies of
itself (``v * _REPLICATE``), so a rotation is a single right shift:
``rotl(v, r)`` is ``a >> (64 - r)`` read from bit 0, and θ's ``rotl(c, 1)``
is ``c << 1``.  No ``& M`` is needed inside a round.  θ's ``<< 1`` leaves
bit 0 wrong, but every lane then shifts right by at least one bit in ρ —
lane 0, whose rotation is 0, shifts a full period (``>> 64``) — so the
bottom of the valid window stays at bit 0 and its top drops by at most 64
bits a round.  ``COPIES = ROUNDS_PER_REFRESH + 1`` therefore leaves one
exact copy after ``ROUNDS_PER_REFRESH`` rounds, and ``(a & M) * _REPLICATE``
rebuilds the copies; the output is ``a & M``.  That is ≈173 big-int
operations a round against 242 for two-shift rotations with a mask each.

The mask ``M``, the χ complement mask ``F`` and the 24 round constants
(grouped by block) are arguments, so the same function permutes two
independent states at once: the second state's lanes sit at bit offset
``PAIR_SHIFT`` (``64 * COPIES``) of the first's.  CPython's cost of a
bitwise op is nearly flat up to ≈1 000 bits, so ``keccak_f1600(lanes,
*PAIR)`` costs about what one state does.  Tests assert both forms
against the reference on random and edge states.
"""

from __future__ import annotations

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

_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

ROUNDS_PER_REFRESH = 3
COPIES = ROUNDS_PER_REFRESH + 1
_WIDTH = 64 * COPIES  # bits of one periodic lane
#: bit offset of the second state's lanes in a two-state call
PAIR_SHIFT = _WIDTH

_MASK = (1 << 64) - 1
_REPLICATE = sum(1 << 64 * k for k in range(COPIES))
_PAIRED = _REPLICATE | _REPLICATE << PAIR_SHIFT


def _blocks(replicate: int) -> tuple:
    """The round constants scaled by ``replicate``, one tuple per block."""
    rcs = [rc * replicate for rc in _ROUND_CONSTANTS]
    return tuple(
        tuple(rcs[i : i + ROUNDS_PER_REFRESH]) for i in range(0, len(rcs), ROUNDS_PER_REFRESH)
    )


#: (mask, χ complement mask, round constants by block) for one state — the
#: defaults
SINGLE = (_MASK, (1 << _WIDTH) - 1, _blocks(_REPLICATE))
#: the same for two states: lane ``i`` is ``first[i] | second[i] << PAIR_SHIFT``
PAIR = (_MASK | _MASK << PAIR_SHIFT, (1 << (PAIR_SHIFT + _WIDTH)) - 1, _blocks(_PAIRED))


def _block(rcs: tuple, last: bool) -> list[str]:
    """``ROUNDS_PER_REFRESH`` rounds whose constants are the locals ``rcs``,
    unindented; the block ends by refreshing the copies, or in ``& M`` if
    ``last``."""
    lines = []
    for n, rc in enumerate(rcs):
        # theta; its a ^= d is folded into rho + pi below
        for x in range(5):
            lines.append(f"c{x} = " + " ^ ".join(f"a{x + 5 * y}" for y in range(5)))
        for x in range(5):
            lines.append(f"d{x} = c{(x - 1) % 5} ^ (c{(x + 1) % 5} << 1)")
        # rho + pi: b[dst] = rotl(a[src], rot[src]) where src = x+3y mod 5 + 5x
        for y in range(5):
            for x in range(5):
                src = (x + 3 * y) % 5 + 5 * x
                shift = 64 - _ROTATIONS[src]
                lines.append(f"b{x + 5 * y} = (a{src} ^ d{src % 5}) >> {shift}")
        # chi (iota folded into lane 0); the block's last round refreshes
        for y in range(5):
            for x in range(5):
                i = x + 5 * y
                lane = f"b{i} ^ ((b{(x + 1) % 5 + 5 * y} ^ F) & b{(x + 2) % 5 + 5 * y})"
                if i == 0:
                    lane += f" ^ {rc}"
                if n == ROUNDS_PER_REFRESH - 1:
                    lane = f"({lane}) & M" if last else f"(({lane}) & M) * {_REPLICATE:#x}"
                lines.append(f"a{i} = {lane}")
    return lines


def _generate_source() -> str:
    lanes = ", ".join(f"a{i}" for i in range(25))
    rcs = tuple(f"r{n}" for n in range(ROUNDS_PER_REFRESH))
    blocks = len(SINGLE[2])
    lines = [
        "def keccak_f1600(state, M=SINGLE[0], F=SINGLE[1], RC=SINGLE[2]):",
        f"    ({lanes}) = state",
    ]
    lines += [f"    a{i} *= {_REPLICATE:#x}" for i in range(25)]
    lines.append(f"    for {', '.join(rcs)} in RC[:{blocks - 1}]:")
    lines += ["        " + line for line in _block(rcs, last=False)]
    lines.append(f"    {', '.join(rcs)} = RC[{blocks - 1}]")
    lines += ["    " + line for line in _block(rcs, last=True)]
    lines.append(f"    return [{lanes}]")
    return "\n".join(lines)


_namespace: dict = {"SINGLE": SINGLE}
exec(_generate_source(), _namespace)  # noqa: S102 - code generated from constants above
keccak_f1600 = _namespace["keccak_f1600"]


# -- batched permutation (numpy) ---------------------------------------------


def keccak_f1600_batch(state):
    """The permutation over N states at once: 25 uint64 arrays of shape (N,).

    One python-level round loop regardless of N — the per-message cost is
    a handful of vector ops, which is what makes bulk memo warm-ups (e.g.
    the synthetic-chain hash cache) ~50x cheaper than hashing one by one.
    Lane order and step structure follow the spec steps; tests assert that
    ``keccak256_batch`` equals scalar ``keccak256`` digest for digest.
    numpy is imported here, on the first batch, not with the module.
    """
    import numpy as np

    def rol(lanes, shift: int):
        if shift == 0:
            return lanes
        return (lanes << np.uint64(shift)) | (lanes >> np.uint64(64 - shift))

    a = list(state)
    for rc in _ROUND_CONSTANTS:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ rol(c[(x + 1) % 5], 1) for x in range(5)]
        a = [a[i] ^ d[i % 5] for i in range(25)]
        b = [None] * 25
        for y in range(5):
            for x in range(5):
                src = (x + 3 * y) % 5 + 5 * x
                b[x + 5 * y] = rol(a[src], _ROTATIONS[src])
        for y in range(5):
            for x in range(5):
                i = x + 5 * y
                a[i] = b[i] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y])
        a[0] = a[0] ^ np.uint64(rc)
    return a
