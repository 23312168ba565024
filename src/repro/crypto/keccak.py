"""Keccak-256 (the pre-NIST variant used by Ethereum).

Ethereum uses the original Keccak submission with multi-rate padding byte
``0x01``, *not* FIPS-202 SHA3-256 (padding ``0x06``) — the two differ on
every input, which is why ``hashlib.sha3_256`` cannot be used.  This module
holds a streaming Keccak-256 and one-shot hashing of one message, two
messages in lockstep, or a batch, over the permutation generated in
:mod:`repro.crypto._keccak_f`.

RLPx depends on Keccak-256 in four places: the discovery distance metric
(hash of the 512-bit node ID), discv4 packet hashes, the RLPx frame MAC
(a Keccak-256 sponge used as a running MAC), and block/genesis hashes.
"""

from __future__ import annotations

import struct
from array import array
from typing import Callable, Iterable

from repro.crypto._keccak_f import PAIR, PAIR_SHIFT, keccak_f1600, keccak_f1600_batch

_MASK = (1 << 64) - 1

# Padding suffix for every single-block input length (rate 136, pad 0x01):
# append 0x01, zero-fill to the rate, XOR 0x80 into the final byte.  At
# length 135 the pad byte and the 0x80 domain bit share one byte (0x81).
_PAD_136 = tuple(
    b"\x81" if n == 135 else b"\x01" + b"\x00" * (134 - n) + b"\x80"
    for n in range(136)
)
_ZERO_CAPACITY = [0] * 8  # lanes 17..24 (the 512-bit capacity) start zero
_ZERO_STATE = [0] * 25
_RATE_LANES = struct.Struct("<17Q").unpack_from


def _absorb(state: list[int], padded: bytes, start: int) -> list[int]:
    """Absorb the rate blocks of ``padded`` from ``start`` on into ``state``."""
    for offset in range(start, len(padded), 136):
        words = _RATE_LANES(padded, offset)
        state = keccak_f1600([lane ^ word for lane, word in zip(state, words)] + state[17:])
    return state


def _digest(state: list[int]) -> bytes:
    return struct.pack("<4Q", state[0], state[1], state[2], state[3])


class Keccak256:
    """Streaming Keccak-256.

    The RLPx frame MAC (:mod:`repro.rlpx.frame`) uses this as a
    never-finalised running hash, updating and snapshotting digests.

    :meth:`digest` is memoised until the next non-empty :meth:`update`: the
    frame MAC digests most states twice (the MAC update re-digests the state
    the body MAC seed was just taken from, and each header re-digests the
    previous frame's final state), and a digest is a permutation.
    """

    def __init__(self, data: bytes = b"") -> None:
        self._state = _ZERO_STATE
        self._buffer = b""
        self._digest: bytes | None = None
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Keccak256":
        if not data:
            return self
        self._digest = None
        buffer = self._buffer + bytes(data)
        full = len(buffer) - len(buffer) % 136
        if full:
            self._state = _absorb(self._state, buffer[:full], 0)
            buffer = buffer[full:]
        self._buffer = buffer
        return self

    def digest(self) -> bytes:
        """Return the digest of everything absorbed so far (non-destructive)."""
        if self._digest is None:
            state = self._state
            words = _RATE_LANES(self._buffer + _PAD_136[len(self._buffer)])
            self._digest = _digest(
                keccak_f1600([lane ^ word for lane, word in zip(state, words)] + state[17:])
            )
        return self._digest


def keccak256(data: bytes) -> bytes:
    """One-shot Keccak-256 digest of ``data``.

    Inputs under one rate block (136 bytes) — node-ID hashes, distance
    targets, synthetic block hashes: every hash on the simulation's hot
    path — are one pad, one permutation, one pack; longer ones absorb their
    padded blocks in a loop, with no streaming sponge built.
    """
    size = len(data)
    if size < 136:
        state = list(struct.unpack("<17Q", data + _PAD_136[size]))
        state += _ZERO_CAPACITY
        return _digest(keccak_f1600(state))
    return _digest(_absorb(_ZERO_STATE, data + _PAD_136[size % 136], 0))


def keccak256_pair(first: bytes, second: bytes) -> tuple[bytes, bytes]:
    """``(keccak256(first), keccak256(second))``, both sponges in one pass.

    The two messages are absorbed block by block in lockstep through the
    two-state permutation (about the cost of one); when their block counts
    differ, the longer message's extra blocks run one-state.  A discv4
    datagram's envelope and body hashes are such a pair.
    """
    first = first + _PAD_136[len(first) % 136]  # not +=: never extend a caller's bytearray
    second = second + _PAD_136[len(second) % 136]
    shared = min(len(first), len(second))
    state = _ZERO_STATE
    for offset in range(0, shared, 136):
        words = zip(_RATE_LANES(first, offset), _RATE_LANES(second, offset))
        state = keccak_f1600(
            [lane ^ a ^ (b << PAIR_SHIFT) for lane, (a, b) in zip(state, words)] + state[17:],
            *PAIR,
        )
    first_state = _absorb([lane & _MASK for lane in state], first, shared)
    second_state = _absorb([lane >> PAIR_SHIFT for lane in state], second, shared)
    return _digest(first_state), _digest(second_state)


#: Below this many same-block-count messages the packed pass loses to
#: scalar hashing: for small groups its cost is nearly flat in N (0.4–0.9 ms
#: for 1 to 24 one-block messages on a noisy 2-core host) against 0.16–0.27
#: ms per scalar hash, so the two meet at 3 to 4.  Measured, and a property
#: of the two code paths rather than of any workload — hence a constant,
#: not an option.
_BATCH_CROSSOVER = 4

#: The packed pass's cost per hash grows with the number of states it packs
#: (the rows are N·64-bit ints, so every shift and mask walks all of them):
#: ≈11 µs at 1 000 one-block messages, ≈13 at 10 000, ≈15 at 40 000.  Bigger
#: groups go through in chunks of this many: a 5 004-message batch went from
#: 38 to 30 ms, a 10 000-height synthetic warm from 8.0 to 6.7 µs a hash.
#: A property of the code path, not an option.
_BATCH_CHUNK = 1024


def keccak256_batch(payloads: list[bytes]) -> list[bytes]:
    """Keccak-256 over many messages in a few packed permutations.

    Messages are grouped by rate-block count and each group is absorbed
    block by block through :func:`keccak_f1600_batch`, which permutes the
    whole group's states packed side by side in 25 ints, amortising the
    pure-python round loop across the group — the bulk path for world
    builds and memo warm-ups (node IDs, genesis headers, synthetic-chain
    hashes).  A group is permuted ``_BATCH_CHUNK`` states at a time, and a
    group or last chunk smaller than the crossover goes through
    per-message :func:`keccak256`; results are byte-identical either way.
    """
    payloads = list(payloads)
    digests: list = [None] * len(payloads)
    groups: dict[int, list[int]] = {}
    for index, payload in enumerate(payloads):
        groups.setdefault(len(payload) // 136 + 1, []).append(index)
    for blocks, group in groups.items():
        for start in range(0, len(group), _BATCH_CHUNK):
            indices = group[start : start + _BATCH_CHUNK]
            if len(indices) < _BATCH_CROSSOVER:
                for index in indices:
                    digests[index] = keccak256(payloads[index])
                continue
            chunk = _absorb_batch([payloads[index] for index in indices], blocks)
            for index, digest in zip(indices, chunk):
                digests[index] = digest
    return digests


def _absorb_batch(payloads: list[bytes], blocks: int) -> list[bytes]:
    """Digests of ``payloads``, every one exactly ``blocks`` rate blocks."""
    count = len(payloads)
    # "Q" items are the padded input's raw 8-byte words, so reading a
    # strided slice back as little-endian bytes packs one lane of every
    # message into one int, on any host byte order
    words = array("Q", b"".join(p + _PAD_136[len(p) % 136] for p in payloads))
    stride = 17 * blocks
    state = _ZERO_STATE
    for block in range(0, stride, 17):
        rows = [int.from_bytes(words[block + i :: stride].tobytes(), "little") for i in range(17)]
        state = keccak_f1600_batch(
            [lane ^ row for lane, row in zip(state, rows)] + state[17:], count
        )
    digests = array("Q", bytes(32 * count))
    for i in range(4):
        digests[i::4] = array("Q", state[i].to_bytes(8 * count, "little"))
    raw = digests.tobytes()
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

    def forget(self, keys: Iterable) -> None:
        """Drop every cached key of ``keys``; the others are ignored."""
        pop = self.pop
        for key in keys:
            pop(key, None)

    def warm(self, keys: Iterable) -> int:
        """Hash every not-yet-cached key in one batch; returns how many."""
        missing = [key for key in dict.fromkeys(keys) if key not in self]
        del missing[self.limit :]  # the rest stay lazy: the cap is hard
        if len(self) + len(missing) > self.limit:
            self.clear()
        payload = self._payload
        self.update(zip(missing, keccak256_batch([payload(key) for key in missing])))
        return len(missing)
