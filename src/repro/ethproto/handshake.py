"""The eth STATUS handshake and the NodeFinder harvest sequence.

``run_eth_handshake`` performs what a compliant eth peer must do right after
DEVp2p HELLO (paper §2.3): send STATUS, read the peer's STATUS, and check
network/genesis compatibility.  ``harvest_dao_check`` continues with
NodeFinder's third and final exchange — the DAO fork header request (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.forks import DAO_FORK_BLOCK
from repro.chain.header import BlockHeader
from repro.devp2p.messages import DisconnectReason
from repro.devp2p.peer import DevP2PPeer
from repro.errors import ProtocolError
from repro.ethproto import messages as eth
from repro.ethproto.forks import DaoForkSide, dao_fork_side


@dataclass
class EthHandshakeInfo:
    """Everything learned from one eth handshake."""

    our_status: eth.StatusMessage
    remote_status: eth.StatusMessage
    compatible: bool
    mismatch_reason: Optional[DisconnectReason] = None
    dao_side: DaoForkSide = DaoForkSide.UNKNOWN


async def run_eth_handshake(
    peer: DevP2PPeer, our_status: eth.StatusMessage
) -> EthHandshakeInfo:
    """Exchange STATUS messages over a negotiated 'eth' capability.

    Raises :class:`ProtocolError` if the peer's first eth message is not
    STATUS; DISCONNECTs surface as :class:`~repro.errors.PeerDisconnected`
    from the underlying read.
    """
    if peer.negotiated("eth") is None:
        raise ProtocolError("'eth' capability was not negotiated")
    await peer.send_subprotocol("eth", eth.STATUS, our_status.encode())
    name, code, payload = await peer.read_subprotocol()
    if name != "eth" or code != eth.STATUS:
        raise ProtocolError(f"expected eth STATUS, got {name}/{code:#x}")
    remote_status = eth.StatusMessage.decode(payload)
    mismatch: Optional[DisconnectReason] = None
    if remote_status.network_id != our_status.network_id:
        mismatch = DisconnectReason.USELESS_PEER
    elif remote_status.genesis_hash != our_status.genesis_hash:
        mismatch = DisconnectReason.USELESS_PEER
    elif remote_status.protocol_version != our_status.protocol_version:
        mismatch = DisconnectReason.INCOMPATIBLE_VERSION
    return EthHandshakeInfo(
        our_status=our_status,
        remote_status=remote_status,
        compatible=mismatch is None,
        mismatch_reason=mismatch,
    )


async def harvest_dao_check(peer: DevP2PPeer) -> tuple[DaoForkSide, Optional[BlockHeader]]:
    """Request the DAO fork block header and classify the peer.

    Returns (side, header).  A peer whose chain is shorter than the fork
    height legitimately answers with zero headers.
    """
    request = eth.GetBlockHeadersMessage(
        origin=DAO_FORK_BLOCK, amount=1, skip=0, reverse=0
    )
    await peer.send_subprotocol("eth", eth.GET_BLOCK_HEADERS, request.encode())
    while True:
        name, code, payload = await peer.read_subprotocol()
        if name != "eth":
            continue
        if code == eth.GET_BLOCK_HEADERS:
            # The peer may symmetrically run its own DAO check; answer empty.
            await peer.send_subprotocol(
                "eth", eth.BLOCK_HEADERS, eth.BlockHeadersMessage(headers=[]).encode()
            )
            continue
        if code == eth.TRANSACTIONS or code == eth.NEW_BLOCK_HASHES:
            continue  # broadcast noise; keep waiting for our answer
        if code != eth.BLOCK_HEADERS:
            raise ProtocolError(f"expected BLOCK_HEADERS, got eth/{code:#x}")
        answer = eth.BlockHeadersMessage.decode(payload)
        break
    headers = answer.headers
    if not headers:
        return dao_fork_side(None), None
    header = BlockHeader.deserialize_rlp(headers[0])
    if header.number != DAO_FORK_BLOCK:
        raise ProtocolError(
            f"peer answered DAO check with block {header.number}"
        )
    return dao_fork_side(header.extra_data), header
