"""Unrolled Keccak-f[1600] permutation.

The readable round-loop implementation lives in :mod:`repro.crypto.keccak`;
this module generates a fully unrolled permutation function at import time
(25 lanes held in locals, all five steps inlined per round), which is ~6x
faster in CPython and keeps the frame-MAC and distance-metric paths usable
at simulation scale.  The generator mirrors the spec steps directly, so the
unrolled code stays auditable; tests assert it matches the loop version on
random states.
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


def _rot_expr(var: str, shift: int) -> str:
    if shift == 0:
        return var
    return f"((({var}) << {shift} | ({var}) >> {64 - shift}) & M)"


def _generate_source() -> str:
    lines = [
        "def keccak_f1600_unrolled(state):",
        "    M = 0xFFFFFFFFFFFFFFFF",
        "    (" + ", ".join(f"a{i}" for i in range(25)) + ") = state",
    ]
    for rc in _ROUND_CONSTANTS:
        # theta
        for x in range(5):
            lanes = " ^ ".join(f"a{x + 5 * y}" for y in range(5))
            lines.append(f"    c{x} = {lanes}")
        for x in range(5):
            rot = _rot_expr(f"c{(x + 1) % 5}", 1)
            lines.append(f"    d{x} = c{(x - 1) % 5} ^ {rot}")
        for i in range(25):
            lines.append(f"    a{i} ^= d{i % 5}")
        # rho + pi: b[dst] = rol(a[src], rot[src]) where src = x+3y mod 5 + 5x
        for y in range(5):
            for x in range(5):
                dst = x + 5 * y
                src = (x + 3 * y) % 5 + 5 * x
                lines.append(f"    b{dst} = {_rot_expr(f'a{src}', _ROTATIONS[src])}")
        # chi — for 0 <= b < 2**64, (~b) & M == b ^ M in one bigint op
        for y in range(5):
            for x in range(5):
                i = x + 5 * y
                i1 = (x + 1) % 5 + 5 * y
                i2 = (x + 2) % 5 + 5 * y
                lines.append(f"    a{i} = b{i} ^ ((b{i1} ^ M) & b{i2})")
        # iota
        lines.append(f"    a0 ^= {rc:#x}")
    lines.append("    return [" + ", ".join(f"a{i}" for i in range(25)) + "]")
    return "\n".join(lines)


_namespace: dict = {}
exec(_generate_source(), _namespace)  # noqa: S102 - code generated from constants above
keccak_f1600_unrolled = _namespace["keccak_f1600_unrolled"]


# -- batched permutation (numpy) ---------------------------------------------

try:  # numpy is optional at runtime: callers fall back to the scalar path
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a dev extra; a bare install lands here
    _np = None

HAVE_BATCH = _np is not None


def _rol_batch(lanes, shift: int):
    if shift == 0:
        return lanes
    return (lanes << _np.uint64(shift)) | (lanes >> _np.uint64(64 - shift))


def keccak_f1600_batch(state):
    """The permutation over N states at once: 25 uint64 arrays of shape (N,).

    One python-level round loop regardless of N — the per-message cost is
    a handful of vector ops, which is what makes bulk memo warm-ups (e.g.
    the synthetic-chain hash cache) ~50x cheaper than hashing one by one.
    Lane order and step structure mirror the scalar generator above; tests
    assert equality against :func:`keccak_f1600_unrolled` lane-for-lane.
    """
    a = list(state)
    for rc in _ROUND_CONSTANTS:
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rol_batch(c[(x + 1) % 5], 1) for x in range(5)]
        a = [a[i] ^ d[i % 5] for i in range(25)]
        b = [None] * 25
        for y in range(5):
            for x in range(5):
                src = (x + 3 * y) % 5 + 5 * x
                b[x + 5 * y] = _rol_batch(a[src], _ROTATIONS[src])
        for y in range(5):
            for x in range(5):
                i = x + 5 * y
                a[i] = b[i] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y])
        a[0] = a[0] ^ _np.uint64(rc)
    return a
