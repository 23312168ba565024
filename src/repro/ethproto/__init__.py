"""The Ethereum wire subprotocol ('eth', versions 62/63) over DEVp2p.

After the DEVp2p HELLO, eth peers must exchange STATUS messages carrying
protocol version, network ID, total difficulty, best hash, and genesis hash
(paper §2.3).  Peers on a different network or genesis are disconnected as
useless.  NodeFinder's harvest then issues one GET_BLOCK_HEADERS for the
DAO fork block to separate mainstream Ethereum from Ethereum Classic.
"""

from repro.ethproto.messages import (
    BlockBodiesMessage,
    BlockHeadersMessage,
    GetBlockBodiesMessage,
    GetBlockHeadersMessage,
    GetNodeDataMessage,
    GetReceiptsMessage,
    NewBlockHashesMessage,
    NewBlockMessage,
    NodeDataMessage,
    ReceiptsMessage,
    StatusMessage,
    TransactionsMessage,
    ETH_62,
    ETH_63,
)
from repro.ethproto.forks import dao_fork_side
from repro.ethproto.handshake import EthHandshakeInfo, run_eth_handshake
from repro.ethproto.sync import HeaderSynchronizer, SyncMode, SyncProgress

__all__ = [
    "StatusMessage",
    "NewBlockHashesMessage",
    "TransactionsMessage",
    "GetBlockHeadersMessage",
    "BlockHeadersMessage",
    "GetBlockBodiesMessage",
    "BlockBodiesMessage",
    "NewBlockMessage",
    "GetNodeDataMessage",
    "NodeDataMessage",
    "GetReceiptsMessage",
    "ReceiptsMessage",
    "ETH_62",
    "ETH_63",
    "dao_fork_side",
    "EthHandshakeInfo",
    "run_eth_handshake",
    "HeaderSynchronizer",
    "SyncMode",
    "SyncProgress",
]
