"""The Ethereum block header (Yellow Paper §4.3).

Fifteen fields, RLP-encoded; the block hash is the Keccak-256 of the RLP.
Header validation here covers the checks listed in paper §2.3 ("block header
validation"): parent hash linkage, block number, timestamp monotonicity,
difficulty formula, and gas-limit bounds.  Proof-of-work is modelled as a
deterministic mix-hash commitment rather than real ethash (no GPU required;
the network-measurement code paths only need headers to be *checkable*).
"""

from __future__ import annotations

from repro.crypto.keccak import keccak256
from repro.errors import InvalidHeader
from repro.rlp import codec
from repro.rlp.sedes import (
    Binary,
    Serializable,
    address,
    big_endian_int,
    binary,
    hash32,
)

#: keccak256(rlp([])) — the uncles hash of an empty uncle list.
EMPTY_UNCLES_HASH = bytes.fromhex(
    "1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347"
)

#: keccak256(rlp(b'')) wrapped trie root of an empty trie.
EMPTY_TRIE_ROOT = bytes.fromhex(
    "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
)

#: Gas limit floor enforced by header validation.
MIN_GAS_LIMIT = 5000

#: Max extra-data length (32 bytes on Mainnet).
MAX_EXTRA_DATA = 32


class BlockHeader(Serializable):
    """One block header; immutable once constructed."""

    fields = [
        ("parent_hash", hash32),
        ("uncles_hash", hash32),
        ("coinbase", address),
        ("state_root", hash32),
        ("tx_root", hash32),
        ("receipt_root", hash32),
        ("bloom", Binary.fixed_length(256)),
        ("difficulty", big_endian_int),
        ("number", big_endian_int),
        ("gas_limit", big_endian_int),
        ("gas_used", big_endian_int),
        ("timestamp", big_endian_int),
        ("extra_data", binary),
        ("mix_hash", hash32),
        ("nonce", Binary.fixed_length(8)),
    ]

    _hash_cache: bytes | None = None

    def hash(self) -> bytes:
        """keccak256 of the RLP encoding — the canonical block hash."""
        if self._hash_cache is None:
            object.__setattr__(
                self, "_hash_cache", keccak256(codec.encode(self.serialize_rlp()))
            )
        return self._hash_cache

    def validate_as_child_of(self, parent: "BlockHeader") -> None:
        """Header validation per Yellow Paper §4.3.4 (paper §2.3).

        Raises :class:`~repro.errors.InvalidHeader` listing the first failed
        check.
        """
        if self.parent_hash != parent.hash():
            raise InvalidHeader(
                f"block {self.number}: parent hash mismatch"
            )
        if self.number != parent.number + 1:
            raise InvalidHeader(
                f"block number {self.number} does not follow {parent.number}"
            )
        if self.timestamp <= parent.timestamp:
            raise InvalidHeader(
                f"block {self.number}: timestamp not after parent"
            )
        if len(self.extra_data) > MAX_EXTRA_DATA:
            raise InvalidHeader(
                f"block {self.number}: extra data {len(self.extra_data)} > 32 bytes"
            )
        if self.gas_used > self.gas_limit:
            raise InvalidHeader(f"block {self.number}: gas used exceeds limit")
        # Gas limit may move at most 1/1024 of the parent's per block.
        bound = parent.gas_limit // 1024
        if abs(self.gas_limit - parent.gas_limit) >= bound or self.gas_limit < MIN_GAS_LIMIT:
            raise InvalidHeader(f"block {self.number}: gas limit out of bounds")
        from repro.chain.difficulty import calc_difficulty

        expected = calc_difficulty(
            parent_difficulty=parent.difficulty,
            parent_timestamp=parent.timestamp,
            timestamp=self.timestamp,
            block_number=self.number,
            parent_has_uncles=parent.uncles_hash != EMPTY_UNCLES_HASH,
        )
        if self.difficulty != expected:
            raise InvalidHeader(
                f"block {self.number}: difficulty {self.difficulty} != {expected}"
            )
        if not self.check_pow():
            raise InvalidHeader(f"block {self.number}: proof-of-work check failed")

    def check_pow(self) -> bool:
        """Simulated proof-of-work check (substitution for ethash).

        A header "has valid PoW" when its mix-hash commits to the header
        contents and nonce: ``mix_hash == keccak256(pow_seal_input)``.
        Real ethash also requires ``hash <= 2^256/difficulty``; that search
        cost is irrelevant to network measurement, so we keep only the
        commitment structure (documented in DESIGN.md).
        """
        return self.mix_hash == self.pow_commitment()

    def pow_commitment(self) -> bytes:
        sealed = self.copy(mix_hash=b"\x00" * 32)
        return keccak256(codec.encode(sealed.serialize_rlp()) + self.nonce)

    def seal(self) -> "BlockHeader":
        """Return a copy with a valid simulated PoW seal."""
        return self.copy(mix_hash=self.pow_commitment())
