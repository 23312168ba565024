"""Blockchain synchronisation: full sync and fast sync (§2.3).

A new node downloads headers with GET_BLOCK_HEADERS batches and bodies with
GET_BLOCK_BODIES, then validates.  The two validation regimes the paper
describes:

* **full sync** — every header fully validated (difficulty, gas bounds,
  PoW seal) as the chain is rebuilt locally;
* **fast sync** (eth/63) — pick a *pivot* block near the remote head;
  up to the pivot only the cheap linkage checks run, with block meta
  fetched via GET_RECEIPTS; at the pivot the state database is pulled with
  GET_NODE_DATA; from the pivot on, full validation resumes.  The paper
  cites roughly an order-of-magnitude speedup.

``HeaderSynchronizer`` implements both against any peer speaking eth/62-63
— our :class:`~repro.fullnode.FullNode` over real sockets in tests.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass

from repro.chain.chain import HeaderChain
from repro.chain.header import BlockHeader
from repro.devp2p.peer import DevP2PPeer
from repro.errors import ChainError, InvalidHeader, ProtocolError
from repro.ethproto import messages as eth

#: Geth's MaxHeaderFetch.
HEADER_BATCH = 192

#: fast sync pivots this many blocks behind the remote head.
PIVOT_DISTANCE = 64


class SyncMode(enum.Enum):
    FULL = "full"
    FAST = "fast"


@dataclass
class SyncProgress:
    """What a sync run did — the quantities behind §2.3's speedup claim."""

    mode: SyncMode
    start_height: int
    target_height: int
    headers_downloaded: int = 0
    header_batches: int = 0
    fully_validated: int = 0
    link_checked_only: int = 0
    receipts_requested: int = 0
    state_chunks_requested: int = 0
    pivot: int | None = None
    bodies_requested: int = 0

    @property
    def complete(self) -> bool:
        return self.start_height + self.headers_downloaded >= self.target_height

    @property
    def validation_work_ratio(self) -> float:
        """Fraction of blocks that needed expensive validation."""
        total = self.fully_validated + self.link_checked_only
        return self.fully_validated / max(total, 1)


class HeaderSynchronizer:
    """Downloads and validates a chain from one peer."""

    def __init__(
        self,
        chain: HeaderChain,
        mode: SyncMode = SyncMode.FULL,
        batch_size: int = HEADER_BATCH,
    ) -> None:
        self.chain = chain
        self.mode = mode
        self.batch_size = batch_size
        # one sync run at a time: the height read below and the appends
        # that follow straddle network awaits, so a second concurrent
        # sync() against the same chain would duplicate or skip headers
        self._sync_lock = asyncio.Lock()

    async def _request_headers(
        self, peer: DevP2PPeer, origin: int, amount: int
    ) -> list[BlockHeader]:
        request = eth.GetBlockHeadersMessage(
            origin=origin, amount=amount, skip=0, reverse=0
        )
        await peer.send_subprotocol("eth", eth.GET_BLOCK_HEADERS, request.encode())
        while True:
            name, code, payload = await peer.read_subprotocol()
            if name != "eth":
                continue
            if code == eth.BLOCK_HEADERS:
                answer = eth.BlockHeadersMessage.decode(payload)
                return [
                    BlockHeader.deserialize_rlp(raw) for raw in answer.headers
                ]
            if code in (eth.TRANSACTIONS, eth.NEW_BLOCK_HASHES, eth.NEW_BLOCK):
                continue  # broadcast noise
            raise ProtocolError(f"unexpected eth message {code:#x} during sync")

    async def _request_receipts(self, peer: DevP2PPeer, hashes: list[bytes]) -> int:
        request = eth.GetReceiptsMessage(hashes=hashes)
        await peer.send_subprotocol("eth", eth.GET_RECEIPTS, request.encode())
        while True:
            name, code, payload = await peer.read_subprotocol()
            if name == "eth" and code == eth.RECEIPTS:
                return len(hashes)
            if name == "eth" and code in (eth.TRANSACTIONS, eth.NEW_BLOCK_HASHES):
                continue
            if name == "eth":
                raise ProtocolError(f"unexpected eth message {code:#x} during sync")

    async def _request_state(self, peer: DevP2PPeer, root: bytes) -> int:
        request = eth.GetNodeDataMessage(hashes=[root])
        await peer.send_subprotocol("eth", eth.GET_NODE_DATA, request.encode())
        while True:
            name, code, payload = await peer.read_subprotocol()
            if name == "eth" and code == eth.NODE_DATA:
                return 1
            if name == "eth" and code in (eth.TRANSACTIONS, eth.NEW_BLOCK_HASHES):
                continue
            if name == "eth":
                raise ProtocolError(f"unexpected eth message {code:#x} during sync")

    async def sync(self, peer: DevP2PPeer, target_height: int) -> SyncProgress:
        """Pull the chain up to ``target_height`` from ``peer``.

        Raises :class:`~repro.errors.InvalidHeader` if the peer serves a
        header that fails validation (the full-sync defence the paper's
        related work contrasts with poisoned-sync eclipse attacks).
        """
        async with self._sync_lock:
            progress = SyncProgress(
                mode=self.mode,
                start_height=self.chain.height,
                target_height=target_height,
            )
            if self.mode is SyncMode.FAST:
                progress.pivot = max(
                    self.chain.height, target_height - PIVOT_DISTANCE
                )
            next_number = self.chain.height + 1
            pending_receipt_hashes: list[bytes] = []
            while next_number <= target_height:
                amount = min(self.batch_size, target_height - next_number + 1)
                headers = await self._request_headers(peer, next_number, amount)
                if not headers:
                    raise ChainError(
                        f"peer returned no headers at {next_number}; sync stalled"
                    )
                progress.header_batches += 1
                for header in headers:
                    if header.number != next_number:
                        raise ChainError(
                            f"expected header {next_number}, got {header.number}"
                        )
                    if (
                        self.mode is SyncMode.FAST
                        and header.number <= progress.pivot
                    ):
                        # cheap path: linkage only + receipts metadata
                        parent = self.chain.head
                        if header.parent_hash != parent.hash():
                            raise InvalidHeader(
                                f"block {header.number}: parent hash mismatch"
                            )
                        self.chain.validate = False
                        self.chain.append(header)
                        self.chain.validate = True
                        progress.link_checked_only += 1
                        pending_receipt_hashes.append(header.hash())
                    else:
                        self.chain.append(header)  # full validation
                        progress.fully_validated += 1
                    progress.headers_downloaded += 1
                    next_number += 1
                    if len(pending_receipt_hashes) >= self.batch_size:
                        progress.receipts_requested += (
                            await self._request_receipts(
                                peer, pending_receipt_hashes
                            )
                        )
                        pending_receipt_hashes = []
                    if (
                        self.mode is SyncMode.FAST
                        and progress.pivot is not None
                        and header.number == progress.pivot
                    ):
                        progress.state_chunks_requested += (
                            await self._request_state(peer, header.state_root)
                        )
            if pending_receipt_hashes:
                progress.receipts_requested += await self._request_receipts(
                    peer, pending_receipt_hashes
                )
            return progress
