"""A validated, fully-linked header chain.

``HeaderChain`` stores real :class:`~repro.chain.header.BlockHeader` objects
whose parent hashes chain correctly, validates appended headers, tracks
total difficulty, and answers GET_BLOCK_HEADERS queries with the exact
origin/amount/skip/reverse semantics of eth/62 (paper §2.3).

A chain can ``mine`` its own continuation deterministically — used by the
localhost integration peers and the examples.  Multi-million-block
histories for the ecosystem simulator come from
:class:`~repro.chain.synthetic.SyntheticChain` instead.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.chain.difficulty import calc_difficulty
from repro.chain.forks import DAO_FORK_BLOCK, DAO_FORK_EXTRA_DATA
from repro.chain.header import EMPTY_TRIE_ROOT, EMPTY_UNCLES_HASH, BlockHeader
from repro.crypto.keccak import keccak256
from repro.errors import ChainError, InvalidHeader

#: Average Ethereum block interval circa 2018, seconds.
BLOCK_INTERVAL = 15


class HeaderChain:
    """An append-only header chain rooted at a genesis header."""

    def __init__(self, genesis: BlockHeader, validate: bool = True) -> None:
        if genesis.number != 0:
            raise ChainError("genesis header must have number 0")
        self.validate = validate
        self._headers: list[BlockHeader] = [genesis]
        self._by_hash: dict[bytes, int] = {genesis.hash(): 0}
        self._total_difficulty: list[int] = [genesis.difficulty]

    # -- inspection -----------------------------------------------------------

    @property
    def genesis(self) -> BlockHeader:
        return self._headers[0]

    @property
    def genesis_hash(self) -> bytes:
        return self.genesis.hash()

    @property
    def head(self) -> BlockHeader:
        return self._headers[-1]

    @property
    def best_hash(self) -> bytes:
        return self.head.hash()

    @property
    def height(self) -> int:
        return self.head.number

    @property
    def total_difficulty(self) -> int:
        return self._total_difficulty[-1]

    def __len__(self) -> int:
        return len(self._headers)

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._by_hash

    def header_at(self, number: int) -> Optional[BlockHeader]:
        if 0 <= number < len(self._headers):
            return self._headers[number]
        return None

    def header_by_hash(self, block_hash: bytes) -> Optional[BlockHeader]:
        index = self._by_hash.get(block_hash)
        return self._headers[index] if index is not None else None

    def total_difficulty_at(self, number: int) -> int:
        if not 0 <= number < len(self._headers):
            raise ChainError(f"no block at height {number}")
        return self._total_difficulty[number]

    # -- growth ---------------------------------------------------------------

    def append(self, header: BlockHeader) -> None:
        """Append a header; validates against the current head."""
        if self.validate:
            header.validate_as_child_of(self.head)
        elif header.parent_hash != self.best_hash or header.number != self.height + 1:
            raise InvalidHeader("header does not extend the chain head")
        self._headers.append(header)
        self._by_hash[header.hash()] = header.number
        self._total_difficulty.append(self.total_difficulty + header.difficulty)

    def mine_block(
        self,
        timestamp: Optional[int] = None,
        extra_data: bytes = b"",
        coinbase: Optional[bytes] = None,
    ) -> BlockHeader:
        """Deterministically mine and append the next block."""
        parent = self.head
        number = parent.number + 1
        if timestamp is None:
            timestamp = parent.timestamp + BLOCK_INTERVAL
        if number == DAO_FORK_BLOCK and not extra_data:
            extra_data = DAO_FORK_EXTRA_DATA
        difficulty = calc_difficulty(
            parent_difficulty=parent.difficulty,
            parent_timestamp=parent.timestamp,
            timestamp=timestamp,
            block_number=number,
            parent_has_uncles=parent.uncles_hash != EMPTY_UNCLES_HASH,
        )
        if coinbase is None:
            coinbase = keccak256(b"miner" + number.to_bytes(8, "big"))[:20]
        header = BlockHeader(
            parent_hash=parent.hash(),
            uncles_hash=EMPTY_UNCLES_HASH,
            coinbase=coinbase,
            state_root=keccak256(parent.state_root + number.to_bytes(8, "big")),
            tx_root=EMPTY_TRIE_ROOT,
            receipt_root=EMPTY_TRIE_ROOT,
            bloom=b"\x00" * 256,
            difficulty=difficulty,
            number=number,
            gas_limit=parent.gas_limit,
            gas_used=0,
            timestamp=timestamp,
            extra_data=extra_data,
            mix_hash=b"\x00" * 32,
            nonce=number.to_bytes(8, "big"),
        ).seal()
        self.append(header)
        return header

    def mine(self, count: int) -> None:
        """Mine ``count`` blocks."""
        for _ in range(count):
            self.mine_block()

    # -- queries ----------------------------------------------------------------

    def get_block_headers(
        self,
        origin: Union[int, bytes],
        amount: int,
        skip: int = 0,
        reverse: bool = False,
        max_headers: int = 192,
    ) -> list[BlockHeader]:
        """Answer a GET_BLOCK_HEADERS query (eth/62 semantics).

        ``origin`` may be a block number or hash; unknown origins yield an
        empty answer.  ``max_headers`` caps the response as Geth does.
        """
        if isinstance(origin, bytes):
            start = self._by_hash.get(origin)
            if start is None:
                return []
        else:
            start = origin
        amount = min(amount, max_headers)
        step = -(skip + 1) if reverse else (skip + 1)
        result: list[BlockHeader] = []
        number = start
        for _ in range(amount):
            header = self.header_at(number)
            if header is None:
                break
            result.append(header)
            number += step
            if number < 0:
                break
        return result
