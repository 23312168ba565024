"""Keccak-256 (the pre-NIST variant used by Ethereum).

Ethereum uses the original Keccak submission with multi-rate padding byte
``0x01``, *not* FIPS-202 SHA3-256 (padding ``0x06``) — the two differ on
every input, which is why ``hashlib.sha3_256`` cannot be used.  This module
implements the Keccak-f[1600] permutation and a streaming sponge.

RLPx depends on Keccak-256 in four places: the discovery distance metric
(hash of the 512-bit node ID), discv4 packet hashes, the RLPx frame MAC
(a raw Keccak sponge used as a running MAC), and block/genesis hashes.
"""

from __future__ import annotations

import copy
import struct
from typing import Callable, Iterable

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

    Readable spec-shaped implementation; production code routes through the
    unrolled variant (same function, generated) in :mod:`repro.crypto._keccak_f`.
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


from repro.crypto._keccak_f import HAVE_BATCH as _HAVE_BATCH  # noqa: E402
from repro.crypto._keccak_f import keccak_f1600_batch  # noqa: E402
from repro.crypto._keccak_f import keccak_f1600_unrolled as keccak_f1600  # noqa: E402


class KeccakSponge:
    """Streaming Keccak sponge with configurable rate and padding.

    The RLPx frame MAC (:mod:`repro.rlpx.frame`) uses this directly as a
    never-finalised running hash, updating and snapshotting digests, so the
    sponge supports both incremental absorption and copy().

    :meth:`digest` is memoised until the next non-empty :meth:`update`, and
    :meth:`copy` carries the memo: the frame MAC digests most states twice
    (the MAC update re-digests the state the body MAC seed was just taken
    from, and each header re-digests the previous frame's final state), and
    a digest is a permutation or more.
    """

    def __init__(self, rate_bytes: int, output_bytes: int, pad_byte: int = 0x01):
        if rate_bytes % 8 != 0 or not 0 < rate_bytes < 200:
            raise ValueError(f"invalid sponge rate: {rate_bytes}")
        self.rate = rate_bytes
        self.output_bytes = output_bytes
        self.pad_byte = pad_byte
        self._state = [0] * 25
        self._buffer = b""
        self._digest: bytes | None = None

    def copy(self) -> "KeccakSponge":
        clone = copy.copy(self)  # shares the immutable buffer and memo
        clone._state = list(self._state)
        return clone

    def update(self, data: bytes) -> "KeccakSponge":
        if not data:
            return self
        self._digest = None
        self._buffer += bytes(data)
        while len(self._buffer) >= self.rate:
            block, self._buffer = self._buffer[: self.rate], self._buffer[self.rate :]
            self._absorb(block)
        return self

    def _absorb(self, block: bytes) -> None:
        state = self._state
        for i, lane in enumerate(struct.unpack(self._lane_fmt, block)):
            state[i] ^= lane
        self._state = keccak_f1600(state)

    @property
    def _lane_fmt(self) -> str:
        return f"<{self.rate // 8}Q"

    def digest(self) -> bytes:
        """Return the digest of everything absorbed so far (non-destructive)."""
        if self._digest is None:
            self._digest = self._compute_digest()
        return self._digest

    def _compute_digest(self) -> bytes:
        pad_len = self.rate - len(self._buffer) % self.rate
        if pad_len == 1:
            padding = bytes([self.pad_byte ^ 0x80])
        else:
            padding = bytes([self.pad_byte]) + b"\x00" * (pad_len - 2) + b"\x80"
        pending = self._buffer + padding
        state = list(self._state)
        lane_fmt = self._lane_fmt
        lanes_per_block = self.rate // 8
        for offset in range(0, len(pending), self.rate):
            for i, lane in enumerate(
                struct.unpack_from(lane_fmt, pending, offset)
            ):
                state[i] ^= lane
            state = keccak_f1600(state)
        out = bytearray()
        while len(out) < self.output_bytes:
            out += struct.pack(lane_fmt, *state[:lanes_per_block])
            if len(out) < self.output_bytes:
                state = keccak_f1600(state)
        return bytes(out[: self.output_bytes])

    def hexdigest(self) -> str:
        return self.digest().hex()


class Keccak256(KeccakSponge):
    """Keccak-256: rate 136 bytes, 32-byte output, padding ``0x01``."""

    def __init__(self, data: bytes = b"") -> None:
        super().__init__(rate_bytes=136, output_bytes=32, pad_byte=0x01)
        if data:
            self.update(data)


# Padding suffix for every single-block input length (rate 136, pad 0x01):
# append 0x01, zero-fill to the rate, XOR 0x80 into the final byte.  At
# length 135 the pad byte and the 0x80 domain bit share one byte (0x81).
_PAD_136 = tuple(
    b"\x81" if n == 135 else b"\x01" + b"\x00" * (134 - n) + b"\x80"
    for n in range(136)
)
_ZERO_CAPACITY = [0] * 8  # lanes 17..24 (the 512-bit capacity) start zero


def keccak256(data: bytes) -> bytes:
    """One-shot Keccak-256 digest of ``data``.

    Inputs under one rate block (136 bytes) — node-ID hashes, distance
    targets, synthetic block hashes: every hash on the simulation's hot
    path — skip the streaming sponge: pad, one permutation, pack.
    """
    size = len(data)
    if size < 136:
        state = list(struct.unpack("<17Q", data + _PAD_136[size]))
        state += _ZERO_CAPACITY
        state = keccak_f1600(state)
        return struct.pack("<4Q", state[0], state[1], state[2], state[3])
    return Keccak256(data).digest()


#: Below this many same-block-count messages the vectorised pass loses to
#: scalar hashing: numpy's cost per permutation call is flat (4.75 ms for
#: 16, 24 or 32 one-block messages) against 199 us per scalar hash, so the
#: two meet at 4.75 / 0.199 = 24.  Measured, and a property of the two code
#: paths rather than of any workload — hence a constant, not an option.
_BATCH_CROSSOVER = 24


def keccak256_batch(payloads: list[bytes]) -> list[bytes]:
    """Keccak-256 over many messages in a few vectorised permutations.

    Messages are grouped by rate-block count and each group is absorbed
    block by block through the numpy-backed :func:`keccak_f1600_batch`,
    amortising the pure-python round loop across the group — the bulk
    path for world builds and memo warm-ups (node IDs, genesis headers,
    synthetic-chain hashes).  Groups smaller than the crossover, and every
    group when numpy is unavailable, go through per-message
    :func:`keccak256`; results are byte-identical either way.
    """
    payloads = list(payloads)
    digests: list = [None] * len(payloads)
    groups: dict[int, list[int]] = {}
    for index, payload in enumerate(payloads):
        groups.setdefault(len(payload) // 136 + 1, []).append(index)
    for blocks, indices in groups.items():
        if not _HAVE_BATCH or len(indices) < _BATCH_CROSSOVER:
            for index in indices:
                digests[index] = keccak256(payloads[index])
            continue
        group = _absorb_batch([payloads[index] for index in indices], blocks)
        for index, digest in zip(indices, group):
            digests[index] = digest
    return digests


def _absorb_batch(payloads: list[bytes], blocks: int) -> list[bytes]:
    """Digests of ``payloads``, every one exactly ``blocks`` rate blocks."""
    import numpy as np

    count = len(payloads)
    padded = b"".join(p + _PAD_136[len(p) % 136] for p in payloads)
    # one contiguous row per input lane: lane i of block b is row 17*b + i
    lanes = np.ascontiguousarray(
        np.frombuffer(padded, dtype="<u8").reshape(count, 17 * blocks).T
    )
    state = list(lanes[:17]) + [np.zeros(count, dtype=np.uint64)] * 8
    state = keccak_f1600_batch(state)
    for block in range(1, blocks):
        rows = lanes[17 * block : 17 * block + 17]
        state[:17] = [lane ^ row for lane, row in zip(state, rows)]
        state = keccak_f1600_batch(state)
    raw = np.stack(state[:4], axis=1).astype("<u8", copy=False).tobytes()
    return [raw[i : i + 32] for i in range(0, 32 * count, 32)]


class KeccakMemo(dict):
    """A bounded ``key -> keccak256(payload(key))`` memo, warmable in bulk.

    A ``dict`` subclass so that a hit through ``memo[key]`` (or a bound
    ``memo.__getitem__``) never leaves C; only a miss reaches
    :meth:`__missing__`, which hashes, stores and returns.  :meth:`warm`
    fills many keys through :func:`keccak256_batch`.  ``limit`` is a hard
    cap on both paths: an insert that would exceed it empties the memo
    first — entries are pure functions of their key, so eviction only
    ever costs a recompute.
    """

    def __init__(self, limit: int, payload: Callable = lambda key: key) -> None:
        super().__init__()
        self.limit = limit
        self._payload = payload

    def __missing__(self, key) -> bytes:
        if len(self) >= self.limit:
            self.clear()
        digest = self[key] = keccak256(self._payload(key))
        return digest

    def warm(self, keys: Iterable) -> int:
        """Hash every not-yet-cached key in one batch; returns how many."""
        missing = [key for key in dict.fromkeys(keys) if key not in self]
        del missing[self.limit :]  # the rest stay lazy: the cap is hard
        if len(self) + len(missing) > self.limit:
            self.clear()
        payload = self._payload
        self.update(zip(missing, keccak256_batch([payload(key) for key in missing])))
        return len(missing)


def keccak512(data: bytes) -> bytes:
    """One-shot Keccak-512 digest (rate 72); used by some DHT variants."""
    return KeccakSponge(rate_bytes=72, output_bytes=64).update(data).digest()
