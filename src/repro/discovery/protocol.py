"""Asyncio UDP endpoint speaking discv4.

Implements the observable behaviour of Geth's ``p2p/discover``:

* **endpoint proof (bonding)** — a node answers FIND_NODE only for peers it
  has exchanged PING/PONG with recently; unbonded queries trigger a PING
  back instead of an answer;
* **iterative lookup** — drive a :class:`~repro.discovery.lookup.Lookup`:
  FIND_NODE to the ``ALPHA`` closest known nodes, merge their NEIGHBORS,
  repeat until no new node appears or the rounds are spent (paper §2.1);
* **reply matching** — as Geth's ``handleReply``: a reply counts only
  from the address asked and signed by the node asked, and a PONG only if
  it echoes the hash of a PING sent there; anything else is an
  unsolicited reply, counted and dropped;
* **NEIGHBORS chunking** — answers are split so no datagram exceeds 1280
  bytes (Geth sends at most :data:`MAX_NEIGHBORS_PER_PACKET` per datagram);
* **table maintenance** — PONGs and valid queries refresh the routing
  table; full buckets trigger the Kademlia eviction check.

This runs over real UDP sockets (tests bind to 127.0.0.1) and is the same
code path NodeFinder's discovery stage drives.
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Iterable, Iterator, Optional

from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey, PublicKey
from repro.discovery.enode import ENode
from repro.discovery.packets import (
    DecodedPacket,
    Endpoint,
    FindNodePacket,
    NeighborRecord,
    NeighborsPacket,
    PingPacket,
    PongPacket,
    DISCOVERY_PROTOCOL_VERSION,
    decode_packet,
    default_expiration,
    encode_packet,
)
from repro.discovery.lookup import Lookup
from repro.discovery.routing import K_NEIGHBORS, RoutingTable
from repro.errors import BadPacket, DiscoveryError
from repro.telemetry import NULL_TELEMETRY, Telemetry

logger = logging.getLogger(__name__)

#: Geth caps NEIGHBORS packets at 12 records to stay under 1280 bytes.
MAX_NEIGHBORS_PER_PACKET = 12

#: How long an endpoint proof (bond) remains valid, seconds.
BOND_EXPIRATION = 12 * 3600

#: How long to wait for a PONG / NEIGHBORS reply, seconds.
REPLY_TIMEOUT = 0.5

#: How many UDP addresses the signer memo (the recovery hint) holds; the
#: oldest entry goes first.
SIGNER_MEMO_SIZE = 1024

_Address = tuple[str, int]

#: A pending reply: the node ID that must have signed it, and the future
#: it resolves.
_Waiter = tuple[bytes, asyncio.Future]


def _resolve(waiters: Iterable[_Waiter], sender_id: bytes, reply: object) -> bool:
    """Hand ``reply`` to the first pending waiter for ``sender_id``; False
    if there is none -- the reply is unsolicited."""
    for expected, waiter in waiters:
        if expected == sender_id and not waiter.done():
            waiter.set_result(reply)
            return True
    return False


def _forget(pending: dict, key: object, entry: _Waiter) -> None:
    """Drop a finished waiter, and its key once no waiter is left."""
    waiters = pending.get(key, [])
    if entry in waiters:
        waiters.remove(entry)
        if not waiters:
            del pending[key]


def _valid_enodes(records: Iterable[NeighborRecord]) -> Iterator[ENode]:
    """The NEIGHBORS records that name a dialable node (64-byte ID, a
    parseable IP, ports in range); the rest are dropped."""
    for record in records:
        try:
            yield ENode(
                node_id=record.node_id,
                ip=record.ip,
                udp_port=record.udp_port,
                tcp_port=record.tcp_port,
            )
        except (DiscoveryError, ValueError):
            continue


class DiscoveryService(asyncio.DatagramProtocol):
    """One discv4 endpoint bound to a UDP socket."""

    def __init__(
        self,
        private_key: PrivateKey,
        host: str = "127.0.0.1",
        port: int = 0,
        bootstrap_nodes: Iterable[ENode] = (),
        reply_timeout: float = REPLY_TIMEOUT,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.private_key = private_key
        self.node_id = private_key.public_key.to_bytes()
        self.host = host
        self.port = port
        #: TCP port advertised in PINGs/ENode records; a node's RLPx
        #: listener usually differs from its UDP socket — callers set this
        #: once their TCP server is bound (defaults to the UDP port).
        self.tcp_port: int | None = None
        self.bootstrap_nodes = list(bootstrap_nodes)
        self.table = RoutingTable.for_node_id(self.node_id)
        self.reply_timeout = reply_timeout
        self.telemetry = telemetry
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._bonds: dict[bytes, float] = {}
        #: (address, PING hash) -> waiters for its PONG
        self._pending_pongs: dict[tuple[_Address, bytes], list[_Waiter]] = {}
        #: address -> waiters for NEIGHBORS, each naming the node asked
        self._pending_neighbors: dict[_Address, list[_Waiter]] = {}
        #: the key each address last signed with: the hint its next
        #: datagram's recovery checks first (FIFO, SIGNER_MEMO_SIZE entries)
        self._signers: dict[_Address, PublicKey] = {}
        #: the last FIND_NODE sent: (target, expiration, datagram)
        self._findnode: tuple[bytes, int, bytes] = (b"", 0, b"")
        #: fire-and-forget protocol chores (bond-back pings, eviction
        #: checks) spawned off the datagram handlers; retained so their
        #: exceptions surface and close() can cancel them
        self._background: set[asyncio.Task] = set()
        self.stats = {
            "pings_sent": 0,
            "pongs_sent": 0,
            "findnodes_sent": 0,
            "neighbors_sent": 0,
            "packets_received": 0,
            "bad_packets": 0,
            "unsolicited_replies": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def listen(self) -> "DiscoveryService":
        """Bind the UDP socket; ``self.port`` is updated with the real port."""
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: self, local_addr=(self.host, self.port)
        )
        self.port = transport.get_extra_info("sockname")[1]
        self._transport = transport
        return self

    def close(self) -> None:
        for task in list(self._background):
            task.cancel()
        self._background.clear()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def _spawn(self, coro) -> asyncio.Task:
        """Run a protocol chore as a supervised background task.

        Datagram handlers are synchronous, so bond-back pings and
        eviction checks must detach — but a bare ``ensure_future`` would
        orphan them: nothing holds the handle, so a crash is silently
        parked on a garbage-collected Task.  Retaining the task and
        logging non-cancellation failures from the done-callback keeps
        the fire-and-forget call sites honest.
        """
        task = asyncio.ensure_future(coro)
        self._background.add(task)
        task.add_done_callback(self._reap_background)
        return task

    def _reap_background(self, task: asyncio.Task) -> None:
        self._background.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            logger.warning("background discovery task crashed: %r", exc)

    @property
    def advertised_tcp_port(self) -> int:
        return self.tcp_port if self.tcp_port is not None else self.port

    @property
    def local_enode(self) -> ENode:
        return ENode(
            node_id=self.node_id,
            ip=self.host,
            udp_port=self.port,
            tcp_port=self.advertised_tcp_port,
        )

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.host, self.port, self.advertised_tcp_port)

    # -- datagram plumbing ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        if self._transport is None:
            self._transport = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: tuple[str, int]) -> None:
        self.stats["packets_received"] += 1
        try:
            decoded = decode_packet(data, sender=self._signers.get(addr))
        except BadPacket as exc:
            self.stats["bad_packets"] += 1
            logger.debug("bad packet from %s: %s", addr, exc)
            return
        # a stranger costs one recovery, a known signer one check; a known
        # address signing with another key costs both (about 1.7 decodes)
        # and from then on hints the new key
        self._signers[addr] = decoded.sender_public_key
        if len(self._signers) > SIGNER_MEMO_SIZE:
            del self._signers[next(iter(self._signers))]
        handler = {
            PingPacket: self._handle_ping,
            PongPacket: self._handle_pong,
            FindNodePacket: self._handle_findnode,
            NeighborsPacket: self._handle_neighbors,
        }[type(decoded.packet)]
        handler(decoded, addr)

    def _send(self, packet, addr: tuple[str, int]) -> bytes:
        datagram = encode_packet(packet, self.private_key)
        self._sendto(datagram, addr)
        return datagram[:32]  # the packet hash

    def _sendto(self, datagram: bytes, addr: tuple[str, int]) -> None:
        if self._transport is None:
            raise DiscoveryError("discovery service is not listening")
        self._transport.sendto(datagram, addr)

    def _findnode_datagram(self, target: bytes) -> bytes:
        """The FIND_NODE for ``target``, signed once per expiration second.

        A lookup round asks its candidates the same question at once, and
        RFC 6979 signing is deterministic: these are the bytes encoding it
        afresh for each candidate would produce.
        """
        expiration = default_expiration()
        if self._findnode[:2] != (target, expiration):
            packet = FindNodePacket(target=target, expiration=expiration)
            self._findnode = (target, expiration, encode_packet(packet, self.private_key))
        return self._findnode[2]

    # -- handlers ------------------------------------------------------------

    def _handle_ping(self, decoded: DecodedPacket, addr: tuple[str, int]) -> None:
        ping: PingPacket = decoded.packet  # type: ignore[assignment]
        pong = PongPacket(
            recipient=Endpoint(addr[0], addr[1], ping.sender.tcp_port),
            ping_hash=decoded.packet_hash,
            expiration=default_expiration(),
        )
        self._send(pong, addr)
        self.stats["pongs_sent"] += 1
        sender_id = decoded.sender_node_id
        self._bonds[sender_id] = time.monotonic()
        node = ENode(
            node_id=sender_id,
            ip=addr[0],
            udp_port=addr[1],
            tcp_port=ping.sender.tcp_port or addr[1],
        )
        self._table_add(node)

    def _handle_pong(self, decoded: DecodedPacket, addr: tuple[str, int]) -> None:
        sender_id = decoded.sender_node_id
        pong: PongPacket = decoded.packet  # type: ignore[assignment]
        waiters = self._pending_pongs.get((addr, pong.ping_hash), [])
        if not _resolve(waiters, sender_id, pong):
            self.stats["unsolicited_replies"] += 1
            return
        self._bonds[sender_id] = time.monotonic()
        # a PONG names no TCP port: refresh the record we hold for this
        # endpoint, and only for a stranger guess that it listens where it
        # answered from — else every bond would overwrite a good port with
        # the guess, and NEIGHBORS would spread it
        node = self.table.get(sender_id)
        if node is None or node.udp_address != addr:
            node = ENode(
                node_id=sender_id, ip=addr[0], udp_port=addr[1], tcp_port=addr[1]
            )
        self._table_add(node)

    def _handle_findnode(self, decoded: DecodedPacket, addr: tuple[str, int]) -> None:
        sender_id = decoded.sender_node_id
        if not self.is_bonded(sender_id):
            # Endpoint proof missing: Geth ignores the query and pings back.
            self._spawn(self.ping_addr(addr, sender_id))
            return
        find: FindNodePacket = decoded.packet  # type: ignore[assignment]
        target_hash = keccak256(find.target)
        closest = self.table.closest_to(target_hash, K_NEIGHBORS)
        records = [
            NeighborRecord(node.ip, node.udp_port, node.tcp_port, node.node_id)
            for node in closest
        ]
        starts = range(0, len(records), MAX_NEIGHBORS_PER_PACKET) if records else [0]
        for start in starts:
            chunk = records[start : start + MAX_NEIGHBORS_PER_PACKET]
            packet = NeighborsPacket(nodes=chunk, expiration=default_expiration())
            self._send(packet, addr)
            self.stats["neighbors_sent"] += 1

    def _handle_neighbors(self, decoded: DecodedPacket, addr: tuple[str, int]) -> None:
        waiters = self._pending_neighbors.get(addr, [])
        if not _resolve(waiters, decoded.sender_node_id, decoded.packet):
            self.stats["unsolicited_replies"] += 1

    def _table_add(self, node: ENode) -> None:
        candidate = self.table.add(node)
        if candidate is not None:
            # Bucket full: Kademlia eviction check — ping the old node.
            self._spawn(self._eviction_check(candidate))

    async def _eviction_check(self, candidate: ENode) -> None:
        alive = await self.ping(candidate)
        if alive:
            self.table.confirm_alive(candidate)
        else:
            self.table.evict(candidate)

    # -- client operations -----------------------------------------------------

    def is_bonded(self, node_id: bytes) -> bool:
        bonded_at = self._bonds.get(node_id)
        return bonded_at is not None and time.monotonic() - bonded_at < BOND_EXPIRATION

    async def ping_addr(
        self, addr: tuple[str, int], node_id: bytes
    ) -> Optional[PongPacket]:
        """PING the node ``node_id`` at ``addr`` and await its PONG (or None
        on timeout): one signed by it that echoes this PING's hash."""
        ping = PingPacket(
            version=DISCOVERY_PROTOCOL_VERSION,
            sender=self.endpoint,
            recipient=Endpoint(addr[0], addr[1], 0),
            expiration=default_expiration(),
        )
        key = (addr, self._send(ping, addr))
        self.stats["pings_sent"] += 1
        entry: _Waiter = (node_id, asyncio.get_running_loop().create_future())
        self._pending_pongs.setdefault(key, []).append(entry)
        try:
            return await asyncio.wait_for(entry[1], self.reply_timeout)
        except asyncio.TimeoutError:
            return None
        finally:
            _forget(self._pending_pongs, key, entry)

    async def ping(self, node: ENode) -> bool:
        """PING ``node``; True if it answered in time."""
        return await self.ping_addr(node.udp_address, node.node_id) is not None

    async def bond(self, node: ENode) -> bool:
        """Establish an endpoint proof with ``node``: one PING, bonded if
        its PONG comes back in time.

        UDP drops datagrams; a lost PING or PONG fails this bond, and the
        next ``bond`` (the crawler's next lookup round) PINGs again.
        """
        if self.is_bonded(node.node_id):
            return True
        bonded = await self.ping(node)
        self.telemetry.record_bond(node.node_id, bonded)
        return bonded

    async def find_node(self, node: ENode, target: bytes) -> list[NeighborRecord]:
        """Send FIND_NODE to ``node``; returns its NEIGHBORS (possibly empty)."""
        await self.bond(node)
        addr = node.udp_address
        entry: _Waiter = (node.node_id, asyncio.get_running_loop().create_future())
        self._pending_neighbors.setdefault(addr, []).append(entry)
        self._sendto(self._findnode_datagram(target), addr)
        self.stats["findnodes_sent"] += 1
        try:
            neighbors: NeighborsPacket = await asyncio.wait_for(
                entry[1], self.reply_timeout
            )
            return list(neighbors.nodes)
        except asyncio.TimeoutError:
            return []
        finally:
            _forget(self._pending_neighbors, addr, entry)

    async def _iterate(self, target: bytes) -> Lookup[ENode]:
        """Drive one :class:`Lookup` toward a 64-byte target over the wire:
        FIND_NODE to each round's candidates at once -- one signed datagram
        for all of them (:meth:`_findnode_datagram`) -- every node learned
        added to the table."""
        target_hash = keccak256(target)
        for node in self.bootstrap_nodes:
            self.table.add(node)
        lookup: Lookup[ENode] = Lookup(
            target_hash,
            self.node_id,
            self.table.closest_in_buckets(target_hash, K_NEIGHBORS),
        )
        while candidates := lookup.next_round():
            # exception-safe fan-out: one peer's crash (malformed datagram,
            # socket teardown mid-query) must not cancel the other queries
            # or abort the whole lookup
            answers = await asyncio.gather(
                *(self.find_node(node, target) for node in candidates),
                return_exceptions=True,
            )
            for node, answer in zip(candidates, answers):
                if isinstance(answer, asyncio.CancelledError):
                    raise answer
                if isinstance(answer, BaseException):
                    logger.warning(
                        "find_node to %s failed: %r", node.short_id(), answer
                    )
                    continue
                for found in lookup.feed(_valid_enodes(answer)):
                    self.table.add(found)
        return lookup

    async def lookup(self, target: bytes) -> list[ENode]:
        """Iterative Kademlia lookup toward a 64-byte target node ID: the
        ``K_NEIGHBORS`` closest nodes known when it ends (paper §2.1)."""
        return (await self._iterate(target)).closest(K_NEIGHBORS)

    async def lookup_all(self, target: bytes) -> list[ENode]:
        """The same lookup, returning every record an answer carried —
        what a crawler wants of it: addresses, not proximity."""
        return list((await self._iterate(target)).results.values())

    async def self_lookup(self) -> list[ENode]:
        """Lookup of our own ID — how a node joins the network."""
        return await self.lookup(self.node_id)
