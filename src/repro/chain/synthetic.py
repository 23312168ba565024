"""O(1)-per-header synthetic chains for ecosystem-scale simulation.

The 2018 Mainnet had ~5.9M blocks; materialising real chained headers for
thousands of simulated peers is pointless work.  ``SyntheticChain`` derives
any header on demand from ``(chain seed, height)``: hashes follow
``H(n) = keccak256(seed || n)``, parent links are consistent by
construction (``parent_hash(n) = H(n-1)``), DAO-fork extra data and fork
heights behave like the real chain, and total difficulty uses a calibrated
closed form.  The *header hash* is the synthetic ``H(n)`` rather than the
RLP hash — the one deliberate deviation, documented in DESIGN.md, that buys
constant-time access.  Genesis hashes are pinned explicitly so the Mainnet
simulation advertises the paper's real ``d4e567...cb8fa3``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Union

from repro.chain.chain import BLOCK_INTERVAL
from repro.chain.forks import DAO_FORK_BLOCK, DAO_FORK_EXTRA_DATA
from repro.chain.genesis import MAINNET_GENESIS_HASH, custom_genesis
from repro.chain.header import EMPTY_TRIE_ROOT, EMPTY_UNCLES_HASH, BlockHeader
from repro.crypto.keccak import KeccakMemo, keccak256
from repro.errors import ChainError

#: Approximate Mainnet head height on 2018-04-23 (paper snapshot day).
MAINNET_HEIGHT_APRIL_2018 = 5_463_000

#: Approximate Mainnet total difficulty at that height (paper era), used to
#: calibrate the closed-form TD so STATUS messages look realistic.
MAINNET_TD_APRIL_2018 = 3_907_000_000_000_000_000_000

#: Mainnet launch, 2015-07-30, unix time.
MAINNET_LAUNCH_TIMESTAMP = 1_438_269_988

#: every synthetic block's difficulty: the closed-form TD's slope
TD_PER_BLOCK = max(MAINNET_TD_APRIL_2018 // max(MAINNET_HEIGHT_APRIL_2018, 1), 1)


#: hard bound on the hash memo; a multi-week 100k run cannot grow it unboundedly
_HASH_MEMO_MAX = 1 << 20

# ``(chain seed, height) -> H(height)``.  Module-level so every chain with
# the same seed reuses one memo instead of re-hashing per object; every
# STATUS exchange asks for the best hash, making this the hottest keccak
# call site.
_HASH_MEMO = KeccakMemo(
    _HASH_MEMO_MAX, lambda key: key[0] + key[1].to_bytes(8, "big")
)

# ``(chain name, genesis hash) -> chain seed``: lets a world warm the seeds
# of all its follower chains in one batch before constructing them.
_SEED_MEMO = KeccakMemo(
    1 << 16, lambda key: b"chain:" + key[0].encode("utf-8") + key[1]
)

#: ``warm_chain_seeds((name, genesis_hash), ...)`` — pre-hash chain seeds
warm_chain_seeds = _SEED_MEMO.warm


def warm_synthetic_pairs(pairs: Iterable[tuple[bytes, int]]) -> int:
    """Bulk-fill the hash memo for ``(chain seed, height)`` pairs.

    One vectorised keccak pass over the not-yet-cached pairs of any number
    of chains, so a simulation that knows which best-hashes its population
    will advertise (every node's ``head - lag``) pays ~10us per hash up
    front instead of ~200us per miss on the dial path.  Returns the number
    of hashes computed; values are identical to the lazy path
    byte-for-byte.  Heights <= 0 are skipped (genesis hashes are pinned).
    """
    return _HASH_MEMO.warm(pair for pair in pairs if pair[1] > 0)


def warm_synthetic_hashes(seed: bytes, numbers: Iterable[int]) -> int:
    """:func:`warm_synthetic_pairs` for heights ``numbers`` of one chain."""
    return warm_synthetic_pairs((seed, number) for number in numbers)


class SyntheticChain:
    """A deterministic pseudo-chain with constant-time header access."""

    def __init__(
        self,
        name: str = "mainnet",
        genesis_hash: bytes | None = None,
        height: int = MAINNET_HEIGHT_APRIL_2018,
        supports_dao_fork: bool = True,
        network_id: int = 1,
    ) -> None:
        self.name = name
        self.network_id = network_id
        self.height = height
        self.supports_dao_fork = supports_dao_fork
        if genesis_hash is None:
            genesis_hash = (
                MAINNET_GENESIS_HASH
                if name in ("mainnet", "classic")
                else custom_genesis(name).hash()
            )
        self.genesis_hash = genesis_hash
        self._seed = _SEED_MEMO[name, genesis_hash]

    # -- identity ------------------------------------------------------------

    def block_hash(self, number: int) -> bytes:
        """The synthetic hash of block ``number``."""
        if number < 0:
            raise ChainError(f"negative block number {number}")
        if number == 0:
            return self.genesis_hash
        return _HASH_MEMO[self._seed, number]

    @property
    def best_hash(self) -> bytes:
        return self.block_hash(self.height)

    def total_difficulty_at(self, number: int) -> int:
        """Closed-form cumulative difficulty (linear calibration)."""
        return (number + 1) * TD_PER_BLOCK

    @property
    def total_difficulty(self) -> int:
        return self.total_difficulty_at(self.height)

    def advance(self, blocks: int = 1) -> None:
        """Grow the chain head (the simulator's clock-tick hook)."""
        self.height += blocks

    # -- headers ---------------------------------------------------------------

    def extra_data_for(self, number: int) -> bytes:
        if (
            self.supports_dao_fork
            and DAO_FORK_BLOCK <= number < DAO_FORK_BLOCK + 10
        ):
            return DAO_FORK_EXTRA_DATA
        return b""

    @lru_cache(maxsize=4096)
    def header_at(self, number: int) -> BlockHeader:
        """Materialise the header for block ``number`` (cached)."""
        if number < 0 or number > self.height:
            raise ChainError(f"no block at height {number} (head {self.height})")
        return BlockHeader(
            parent_hash=self.block_hash(number - 1) if number else b"\x00" * 32,
            uncles_hash=EMPTY_UNCLES_HASH,
            coinbase=self._seed[:20],
            state_root=keccak256(self._seed + b"state" + number.to_bytes(8, "big")),
            tx_root=EMPTY_TRIE_ROOT,
            receipt_root=EMPTY_TRIE_ROOT,
            bloom=b"\x00" * 256,
            difficulty=TD_PER_BLOCK,
            number=number,
            gas_limit=8_000_000,
            gas_used=0,
            timestamp=MAINNET_LAUNCH_TIMESTAMP + number * BLOCK_INTERVAL,
            extra_data=self.extra_data_for(number),
            mix_hash=b"\x00" * 32,
            nonce=number.to_bytes(8, "big"),
        )

    def get_block_headers(
        self,
        origin: Union[int, bytes],
        amount: int,
        skip: int = 0,
        reverse: bool = False,
        max_headers: int = 192,
    ) -> list[BlockHeader]:
        """GET_BLOCK_HEADERS semantics over the synthetic history."""
        if isinstance(origin, bytes):
            # Hash lookups over a synthetic chain: only head/genesis resolve,
            # which is all the crawler and sync paths ever ask for.
            if origin == self.best_hash:
                start = self.height
            elif origin == self.genesis_hash:
                start = 0
            else:
                return []
        else:
            start = origin
        amount = min(amount, max_headers)
        step = -(skip + 1) if reverse else (skip + 1)
        result = []
        number = start
        for _ in range(amount):
            if number < 0 or number > self.height:
                break
            result.append(self.header_at(number))
            number += step
        return result
