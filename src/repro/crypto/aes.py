"""AES block cipher (128/192/256) with CTR and single-block ECB modes.

The RLPx transport needs exactly two AES constructions:

* **AES-CTR** as the frame body/header cipher and the ECIES bulk cipher;
* **single-block AES-ECB** (AES-256) inside the frame MAC construction,
  which encrypts the running egress/ingress MAC digest.

This is a table-driven implementation of FIPS 197.  It is deliberately
simple rather than constant-time: the threat model of a measurement
reproduction is correctness, not side channels, and tests validate it
against the FIPS 197 / NIST SP 800-38A vectors.  Both constructions only
ever *encrypt* blocks, so encryption is the fast path -- four 256-entry
32-bit T-tables over a state of four column words -- and decryption keeps
the byte-wise round functions of the specification.
"""

from __future__ import annotations

from repro.errors import CryptoError

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16"
)

_INV_SBOX = bytes(256)
_inv = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _inv[_v] = _i
_INV_SBOX = bytes(_inv)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


# Precompute GF(2^8) multiplication tables for MixColumns coefficients.
_MUL = {}
for _coef in (1, 2, 3, 9, 11, 13, 14):
    table = bytearray(256)
    for _x in range(256):
        result, a, b = 0, _x, _coef
        while b:
            if b & 1:
                result ^= a
            a = _xtime(a)
            b >>= 1
        table[_x] = result
    _MUL[_coef] = bytes(table)


def _ror8(word: int) -> int:
    return (word >> 8) | ((word & 0xFF) << 24)


# Encryption T-tables: SubBytes, ShiftRows and MixColumns of one round fold
# into four lookups and four XORs per 32-bit column.  ``_TE0[a]`` is the
# MixColumns column (2, 1, 1, 3) * S[a] as a big-endian word; the other three
# are its byte rotations.
_TE0 = tuple(
    (_MUL[2][_s] << 24) | (_s << 16) | (_s << 8) | _MUL[3][_s] for _s in _SBOX
)
_TE1 = tuple(_ror8(_w) for _w in _TE0)
_TE2 = tuple(_ror8(_w) for _w in _TE1)
_TE3 = tuple(_ror8(_w) for _w in _TE2)


class AES:
    """The AES block cipher for a fixed key; 16-byte blocks."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_words = self._expand_key(self.key)

    def _expand_key(self, key: bytes) -> tuple[int, ...]:
        nk = len(key) // 4
        words = [key[4 * i : 4 * i + 4] for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = bytes(_SBOX[b] for b in temp)
                temp = bytes([temp[0] ^ _RCON[i // nk - 1]]) + temp[1:]
            elif nk > 6 and i % nk == 4:
                temp = bytes(_SBOX[b] for b in temp)
            words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
        return tuple(int.from_bytes(word, "big") for word in words)

    @staticmethod
    def _add_round_key(state: bytearray, round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: bytearray, box: bytes) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _inv_shift_rows(state: bytearray) -> None:
        # state is column-major: byte (row, col) at index 4*col + row.
        for row in range(1, 4):
            column = [state[4 * col + row] for col in range(4)]
            column = column[-row:] + column[:-row]
            for col in range(4):
                state[4 * col + row] = column[col]

    @staticmethod
    def _inv_mix_columns(state: bytearray) -> None:
        m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
        for col in range(4):
            i = 4 * col
            a0, a1, a2, a3 = state[i : i + 4]
            state[i] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            state[i + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            state[i + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            state[i + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]

    def _encrypt_int(self, block: int) -> int:
        """Encrypt one block held as a 128-bit big-endian integer."""
        rk = self._round_words
        te0, te1, te2, te3, box = _TE0, _TE1, _TE2, _TE3, _SBOX
        # The state is four big-endian column words.
        s0 = (block >> 96) ^ rk[0]
        s1 = (block >> 64) & 0xFFFFFFFF ^ rk[1]
        s2 = (block >> 32) & 0xFFFFFFFF ^ rk[2]
        s3 = block & 0xFFFFFFFF ^ rk[3]
        last = 4 * self.rounds
        for k in range(4, last, 4):
            t0 = te0[s0 >> 24] ^ te1[s1 >> 16 & 255] ^ te2[s2 >> 8 & 255] ^ te3[s3 & 255]
            t1 = te0[s1 >> 24] ^ te1[s2 >> 16 & 255] ^ te2[s3 >> 8 & 255] ^ te3[s0 & 255]
            t2 = te0[s2 >> 24] ^ te1[s3 >> 16 & 255] ^ te2[s0 >> 8 & 255] ^ te3[s1 & 255]
            t3 = te0[s3 >> 24] ^ te1[s0 >> 16 & 255] ^ te2[s1 >> 8 & 255] ^ te3[s2 & 255]
            s0, s1, s2, s3 = t0 ^ rk[k], t1 ^ rk[k + 1], t2 ^ rk[k + 2], t3 ^ rk[k + 3]
        # Final round: no MixColumns, so plain S-box bytes in ShiftRows order.
        t0 = box[s0 >> 24] << 24 | box[s1 >> 16 & 255] << 16
        t0 |= box[s2 >> 8 & 255] << 8 | box[s3 & 255]
        t1 = box[s1 >> 24] << 24 | box[s2 >> 16 & 255] << 16
        t1 |= box[s3 >> 8 & 255] << 8 | box[s0 & 255]
        t2 = box[s2 >> 24] << 24 | box[s3 >> 16 & 255] << 16
        t2 |= box[s0 >> 8 & 255] << 8 | box[s1 & 255]
        t3 = box[s3 >> 24] << 24 | box[s0 >> 16 & 255] << 16
        t3 |= box[s1 >> 8 & 255] << 8 | box[s2 & 255]
        return (
            (t0 ^ rk[last]) << 96
            | (t1 ^ rk[last + 1]) << 64
            | (t2 ^ rk[last + 2]) << 32
            | (t3 ^ rk[last + 3])
        )

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        return self._encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        # Off every hot path, so the byte form of the schedule is made here
        # rather than kept beside the words on every cipher object.
        schedule = b"".join(word.to_bytes(4, "big") for word in self._round_words)
        round_keys = [schedule[16 * r : 16 * r + 16] for r in range(self.rounds + 1)]
        state = bytearray(block)
        self._add_round_key(state, round_keys[self.rounds])
        for rnd in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, round_keys[0])
        return bytes(state)


class AESCTR:
    """AES in counter mode with a streaming interface.

    Encryption and decryption are the same operation; the object keeps its
    keystream position so successive calls continue the stream, matching how
    the RLPx frame ciphers are used.
    """

    def __init__(self, key: bytes, initial_counter: bytes) -> None:
        if len(initial_counter) != 16:
            raise CryptoError("CTR counter block must be 16 bytes")
        self._aes = AES(key)
        self._counter = int.from_bytes(initial_counter, "big")
        self._keystream = b""

    def process(self, data: bytes) -> bytes:
        """Encrypt or decrypt ``data``, advancing the keystream."""
        size = len(data)
        missing = size - len(self._keystream)
        if missing > 0:
            blocks = []
            for _ in range((missing + 15) // 16):
                blocks.append(self._aes._encrypt_int(self._counter).to_bytes(16, "big"))
                self._counter = (self._counter + 1) % (1 << 128)
            self._keystream += b"".join(blocks)
        pad = int.from_bytes(self._keystream[:size], "big")
        self._keystream = self._keystream[size:]
        return (int.from_bytes(data, "big") ^ pad).to_bytes(size, "big")


def aes_ctr(key: bytes, counter: bytes, data: bytes) -> bytes:
    """One-shot AES-CTR (used by ECIES, where the IV is the counter)."""
    return AESCTR(key, counter).process(data)
