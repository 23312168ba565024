"""A live Ethereum-protocol node over real sockets.

``FullNode`` glues the whole from-scratch stack together: discv4 discovery
on UDP, RLPx-encrypted TCP with DEVp2p session establishment, the eth
STATUS handshake, GET_BLOCK_HEADERS service from a real header chain, and a
Geth-style maximum-peer limit that answers extra dials with Too-many-peers
— everything NodeFinder needs a counterparty to do.

Integration tests and the examples run small localhost networks of these
nodes and crawl them with :mod:`repro.nodefinder.wire`, exercising every
byte of the protocol implementation end to end.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Optional

from repro.chain.chain import HeaderChain
from repro.chain.genesis import mainnet_genesis
from repro.crypto.keys import PrivateKey
from repro.devp2p.messages import (
    Capability,
    DisconnectMessage,
    DisconnectReason,
    HelloMessage,
)
from repro.devp2p.peer import DevP2PPeer
from repro.discovery.enode import ENode
from repro.discovery.protocol import DiscoveryService
from repro.errors import HandshakeError, PeerDisconnected, ProtocolError, ReproError
from repro.ethproto import messages as eth
from repro.resilience.chaos import ChaosConfig, ChaosStreamReader
from repro.rlpx.session import accept_session

logger = logging.getLogger(__name__)

#: the eth protocol version a node announces in STATUS
PROTOCOL_VERSION = 63


@dataclass
class FullNodeConfig:
    """Behaviour knobs for one live node.  At ``max_peers`` a node sends
    DISCONNECT(Too many peers), like real clients."""

    client_id: str = "Geth/v1.7.3-stable-repro/linux-amd64/go1.9.2"
    network_id: int = 1
    max_peers: int = 25


class FullNode:
    """One live node: UDP discovery + TCP eth service."""

    def __init__(
        self,
        private_key: PrivateKey | None = None,
        chain: HeaderChain | None = None,
        config: FullNodeConfig | None = None,
        host: str = "127.0.0.1",
        chaos: ChaosConfig | None = None,
    ) -> None:
        self.private_key = private_key or PrivateKey.generate()
        self.chain = chain if chain is not None else HeaderChain(mainnet_genesis())
        self.config = config or FullNodeConfig()
        self.host = host
        #: fault injection on the node's *inbound* read path — a simnet or
        #: test network can make this node misbehave (stall, reset, send
        #: garbage) toward whoever dials it
        self.chaos = chaos
        self.discovery: Optional[DiscoveryService] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.tcp_port = 0
        self.peers: dict[bytes, DevP2PPeer] = {}
        self.stats = {
            "inbound_connections": 0,
            "hellos": 0,
            "statuses": 0,
            "too_many_peers_sent": 0,
            "headers_served": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self, bootstrap: list[ENode] = ()) -> "FullNode":
        """Bind UDP discovery and the TCP listener."""
        self.discovery = DiscoveryService(
            self.private_key,
            host=self.host,
            bootstrap_nodes=list(bootstrap),
        )
        await self.discovery.listen()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, 0
        )
        self.tcp_port = self._server.sockets[0].getsockname()[1]
        self.discovery.tcp_port = self.tcp_port
        return self

    async def stop(self) -> None:
        for peer in list(self.peers.values()):
            peer.abort()
        self.peers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.discovery is not None:
            self.discovery.close()

    @property
    def node_id(self) -> bytes:
        return self.private_key.public_key.to_bytes()

    @property
    def enode(self) -> ENode:
        return ENode(
            node_id=self.node_id,
            ip=self.host,
            udp_port=self.discovery.port if self.discovery else 0,
            tcp_port=self.tcp_port,
        )

    async def join(self, bootstrap: ENode) -> int:
        """Bond with a bootstrap node and run a self-lookup; returns the
        number of nodes discovered."""
        assert self.discovery is not None
        self.discovery.bootstrap_nodes.append(bootstrap)
        await self.discovery.bond(bootstrap)
        found = await self.discovery.self_lookup()
        return len(found)

    # -- hello / status ---------------------------------------------------------

    def our_hello(self) -> HelloMessage:
        return HelloMessage(
            version=5,
            client_id=self.config.client_id,
            capabilities=[Capability("eth", 62), Capability("eth", 63)],
            listen_port=self.tcp_port,
            node_id=self.node_id,
        )

    def our_status(self) -> eth.StatusMessage:
        return eth.StatusMessage(
            protocol_version=PROTOCOL_VERSION,
            network_id=self.config.network_id,
            total_difficulty=self.chain.total_difficulty,
            best_hash=self.chain.best_hash,
            genesis_hash=self.chain.genesis_hash,
        )

    # -- inbound service -----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["inbound_connections"] += 1
        if self.chaos is not None:
            reader = ChaosStreamReader(reader, self.chaos)  # type: ignore[assignment]
        try:
            session = await accept_session(reader, writer, self.private_key)
        except HandshakeError:
            return
        peer = DevP2PPeer(session, self.our_hello())
        try:
            await peer.handshake()
            self.stats["hellos"] += 1
            if len(self.peers) >= self.config.max_peers:
                self.stats["too_many_peers_sent"] += 1
                await self._disconnect_lingering(peer, DisconnectReason.TOO_MANY_PEERS)
                return
            if peer.negotiated("eth") is None:
                await peer.disconnect(DisconnectReason.USELESS_PEER)
                return
            self.peers[peer.remote_node_id] = peer
            await self._serve_eth(peer)
        except (PeerDisconnected, ProtocolError, ReproError):
            pass
        except (ConnectionError, OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:  # reprolint: disable=ASYNC-CANCEL
            # server shutting down mid-session: close quietly.  Re-raising
            # from a start_server callback is noisy on 3.11 — the streams
            # machinery retrieves task.exception() without a cancelled()
            # guard and logs "Exception in callback" for every cancelled
            # handler (fixed upstream in 3.12).
            pass
        finally:
            self.peers.pop(peer.remote_node_id, None)
            peer.abort()

    async def _disconnect_lingering(
        self, peer: DevP2PPeer, reason: DisconnectReason
    ) -> None:
        """Send DISCONNECT but keep the socket open briefly so the remote
        can read the reason before seeing EOF (what real clients do)."""
        try:
            message = DisconnectMessage(reason=int(reason)).encode()
            await peer.session.send_message(0x01, message)
            await asyncio.sleep(0.25)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            peer.abort()

    async def _serve_eth(self, peer: DevP2PPeer) -> None:
        """STATUS exchange, then answer header queries until disconnect."""
        await peer.send_subprotocol("eth", eth.STATUS, self.our_status().encode())
        while True:
            name, code, payload = await peer.read_subprotocol()
            if name != "eth":
                continue
            if code == eth.STATUS:
                self.stats["statuses"] += 1
                remote = eth.StatusMessage.decode(payload)
                if not remote.same_chain_as(self.our_status()):
                    await peer.disconnect(DisconnectReason.USELESS_PEER)
                    return
            elif code == eth.GET_BLOCK_HEADERS:
                request = eth.GetBlockHeadersMessage.decode(payload)
                headers = self.chain.get_block_headers(
                    request.origin,
                    request.amount,
                    request.skip,
                    bool(request.reverse),
                )
                self.stats["headers_served"] += len(headers)
                answer = eth.BlockHeadersMessage.from_headers(headers)
                await peer.send_subprotocol("eth", eth.BLOCK_HEADERS, answer.encode())
            elif code == eth.GET_BLOCK_BODIES:
                await peer.send_subprotocol(
                    "eth", eth.BLOCK_BODIES, eth.BlockBodiesMessage(bodies=[]).encode()
                )
            elif code == eth.GET_RECEIPTS:
                # empty-block chain: every receipt list is empty
                request = eth.GetReceiptsMessage.decode(payload)
                answer = eth.ReceiptsMessage(receipts=[[] for _ in request.hashes])
                await peer.send_subprotocol("eth", eth.RECEIPTS, answer.encode())
            elif code == eth.GET_NODE_DATA:
                request = eth.GetNodeDataMessage.decode(payload)
                # serve opaque state chunks keyed by the requested roots
                answer = eth.NodeDataMessage(
                    values=[b"state:" + h for h in request.hashes]
                )
                await peer.send_subprotocol("eth", eth.NODE_DATA, answer.encode())
            # everything else (TRANSACTIONS etc.) is accepted silently


async def start_localhost_network(
    count: int,
    blocks: int = 32,
    config: FullNodeConfig | None = None,
) -> list[FullNode]:
    """Start ``count`` nodes sharing one mined chain, discovery-bonded in a
    star around the first node (the bootstrap)."""
    chain = HeaderChain(mainnet_genesis())
    chain.mine(blocks)
    nodes = []
    for index in range(count):
        node = FullNode(PrivateKey(10_000 + index), chain=chain, config=config)
        await node.start()
        nodes.append(node)
    bootstrap = nodes[0].enode
    for node in nodes[1:]:
        await node.join(bootstrap)
    return nodes
