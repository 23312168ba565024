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


# -- batched permutation (packed big ints) ------------------------------------

_PI_SOURCES = tuple((x + 3 * y) % 5 + 5 * x for y in range(5) for x in range(5))
#: the two χ neighbours, (x + 1, y) and (x + 2, y), of lane x + 5y
_CHI = tuple((i - i % 5 + (i + 1) % 5, i - i % 5 + (i + 2) % 5) for i in range(25))


def keccak_f1600_batch(lanes: list[int], n: int) -> list[int]:
    """The permutation over ``n`` states at once, packed into 25 ints.

    Lane ``i`` of every state sits side by side in ``lanes[i]``: state
    ``j``'s word at bits ``64 * j`` up.  Every step is a bitwise op on the
    whole row, so one Python-level round loop serves all ``n`` states.
    Periodic lanes cannot work here — a neighbouring state would bleed in —
    so ``rotl(v, r)`` is ``((v << r) & HI) | ((v >> (64 - r)) & LO)``, with
    the word masks built once per call for the rotations in use.  χ's
    ``~b1 & b2`` is ``(b1 | b2) ^ b1``, which needs no mask, and ι XORs the
    round constant repeated in every word.  Tests assert the result against
    the reference permutation of each state alone.
    """
    rep = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * n, "little")
    full = _MASK * rep
    low = {r: ((1 << r) - 1) * rep for r in _ROTATIONS if r}
    # per destination lane but the first (rotation 0): source lane, θ
    # column, shifts and masks
    rho = []
    for src in _PI_SOURCES[1:]:
        r = _ROTATIONS[src]
        rho.append((src, src % 5, r, 64 - r, full ^ low[r], low[r]))
    high1, low1 = full ^ low[1], low[1]
    a = lanes
    for rc in _ROUND_CONSTANTS:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[x - 1] ^ ((c[x - 4] << 1) & high1) ^ ((c[x - 4] >> 63) & low1) for x in range(5)]
        b = [a[0] ^ d[0]]
        for src, column, r, back, high, low_r in rho:
            v = a[src] ^ d[column]
            b.append(((v << r) & high) | ((v >> back) & low_r))
        a = [b[i] ^ ((b[j] | b[k]) ^ b[j]) for i, (j, k) in enumerate(_CHI)]
        a[0] ^= rc * rep
    return a
