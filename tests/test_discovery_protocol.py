"""Integration tests for the discv4 UDP service on localhost sockets."""

import asyncio
import time

import pytest

from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.discovery.lookup import ALPHA, LOOKUP_ROUNDS
from repro.discovery.packets import (
    Endpoint,
    NeighborRecord,
    NeighborsPacket,
    PongPacket,
    default_expiration,
    encode_packet,
)
from repro.discovery.protocol import SIGNER_MEMO_SIZE, DiscoveryService
from repro.discovery.routing import K_NEIGHBORS


def run(coroutine):
    return asyncio.run(coroutine)


async def start_services(count: int, **kwargs) -> list[DiscoveryService]:
    services = [
        DiscoveryService(PrivateKey(5000 + i), **kwargs) for i in range(count)
    ]
    for service in services:
        await service.listen()
    return services


async def stop_services(services):
    for service in services:
        service.close()
    await asyncio.sleep(0)


class TestBonding:
    def test_ping_pong(self):
        async def scenario():
            a, b = await start_services(2)
            try:
                assert await a.ping(b.local_enode)
                assert a.is_bonded(b.node_id)
                assert b.is_bonded(a.node_id)  # PING bonds the receiver too
            finally:
                await stop_services([a, b])

        run(scenario())

    def test_ping_timeout_on_dead_peer(self):
        async def scenario():
            (a,) = await start_services(1, reply_timeout=0.1)
            b = DiscoveryService(PrivateKey(9999))
            await b.listen()
            dead = b.local_enode
            b.close()
            await asyncio.sleep(0)
            try:
                assert not await a.ping(dead)
            finally:
                await stop_services([a])

        run(scenario())

    def test_ping_adds_to_table(self):
        async def scenario():
            a, b = await start_services(2)
            try:
                await a.ping(b.local_enode)
                assert a.table.get(b.node_id) is not None
                assert b.table.get(a.node_id) is not None
            finally:
                await stop_services([a, b])

        run(scenario())


class TestFindNode:
    def test_findnode_requires_bond(self):
        """Unbonded FIND_NODE gets no answer (endpoint-proof rule)."""

        async def scenario():
            a, b = await start_services(2, reply_timeout=0.2)
            try:
                # a has never pinged b and b has never pinged a: force the
                # unbonded path by clearing a's view so find_node's internal
                # bond() is skipped via a fake bond entry on a only.
                import time

                a._bonds[b.node_id] = time.monotonic()
                records = await a.find_node(b.local_enode, a.node_id)
                assert records == []  # b ignored the query (and pinged back)
            finally:
                await stop_services([a, b])

        run(scenario())

    def test_findnode_returns_known_nodes(self):
        async def scenario():
            services = await start_services(5)
            hub = services[0]
            try:
                for other in services[1:]:
                    await other.bond(hub.local_enode)
                records = await services[1].find_node(
                    hub.local_enode, services[1].node_id
                )
                ids = {record.node_id for record in records}
                # hub knows everyone who bonded with it
                assert services[2].node_id in ids or services[3].node_id in ids
            finally:
                await stop_services(services)

        run(scenario())


class RecordingTransport:
    """Stands in for the UDP socket: keeps what the service sends."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr=None):
        self.sent.append((data, addr))

    def close(self):
        pass


PEER = PrivateKey(6001)  # the node asked
THIRD = PrivateKey(6002)  # anyone else, at the same address
PEER_ADDR = ("127.0.0.1", 30399)
PEER_ENODE = ENode(PEER.public_key.to_bytes(), *PEER_ADDR, 30399)


def offline_service() -> tuple[DiscoveryService, RecordingTransport]:
    service = DiscoveryService(PrivateKey(6000))
    transport = RecordingTransport()
    service._transport = transport
    return service, transport


def pong_for(ping_datagram: bytes, key: PrivateKey) -> bytes:
    pong = PongPacket(
        recipient=Endpoint("127.0.0.1", 30301, 0),
        ping_hash=ping_datagram[:32],
        expiration=default_expiration(),
    )
    return encode_packet(pong, key)


class TestReplyMatching:
    """A reply counts only if it answers something we sent, from the node we
    sent it to (Geth's ``handleReply``): a datagram from the right address
    signed by a third key is unsolicited -- counted and dropped."""

    def test_neighbors_signed_by_another_key_is_unsolicited(self):
        async def scenario():
            service, _ = offline_service()
            service._bonds[PEER_ENODE.node_id] = time.monotonic()  # no PING needed
            asked = asyncio.ensure_future(service.find_node(PEER_ENODE, bytes(64)))
            await asyncio.sleep(0)
            record = NeighborRecord("10.0.0.9", 30303, 30303, bytes([9]) * 64)
            answer = NeighborsPacket(nodes=[record], expiration=default_expiration())
            service.datagram_received(encode_packet(answer, THIRD), PEER_ADDR)
            await asyncio.sleep(0)
            assert not asked.done()
            assert service.stats["unsolicited_replies"] == 1
            service.datagram_received(encode_packet(answer, PEER), PEER_ADDR)
            assert await asked == [record]
            assert service._pending_neighbors == {}

        run(scenario())

    def test_pong_must_echo_our_ping_from_the_node_pinged(self):
        async def scenario():
            service, transport = offline_service()
            pinged = asyncio.ensure_future(service.ping(PEER_ENODE))
            await asyncio.sleep(0)
            [(ping, _)] = transport.sent
            # a PONG for another PING, one from another address, and one
            # signed by a third key
            service.datagram_received(pong_for(bytes(32) + ping[32:], PEER), PEER_ADDR)
            service.datagram_received(pong_for(ping, PEER), ("127.0.0.1", 30398))
            service.datagram_received(pong_for(ping, THIRD), PEER_ADDR)
            await asyncio.sleep(0)
            assert not pinged.done()
            assert service.stats["unsolicited_replies"] == 3
            for key in (PEER, THIRD):
                assert not service.is_bonded(key.public_key.to_bytes())
            assert service.table.get(THIRD.public_key.to_bytes()) is None
            service.datagram_received(pong_for(ping, PEER), PEER_ADDR)
            assert await pinged
            assert service.is_bonded(PEER_ENODE.node_id)
            assert service._pending_pongs == {}

        run(scenario())


class TestSignerMemo:
    """Each address's last signer is the hint for its next datagram."""

    def test_memo_follows_the_latest_signer_and_drops_the_oldest_address(self):
        service, _ = offline_service()
        answer = NeighborsPacket(nodes=[], expiration=default_expiration())
        by_peer, by_third = encode_packet(answer, PEER), encode_packet(answer, THIRD)
        service.datagram_received(by_peer, PEER_ADDR)
        assert service._signers[PEER_ADDR] == PEER.public_key
        hint = service._signers[PEER_ADDR]
        service.datagram_received(by_peer, PEER_ADDR)
        assert service._signers[PEER_ADDR] is hint  # decoded on the hint
        service.datagram_received(by_third, PEER_ADDR)
        assert service._signers[PEER_ADDR] == THIRD.public_key
        for port in range(SIGNER_MEMO_SIZE - 1):  # full, PEER_ADDR the oldest
            service._signers[("10.0.0.1", port)] = hint
        service.datagram_received(by_peer, ("10.0.0.2", 1))
        assert len(service._signers) == SIGNER_MEMO_SIZE
        assert PEER_ADDR not in service._signers
        assert service._signers[("10.0.0.2", 1)] == PEER.public_key

    def test_garbage_leaves_the_memo_alone(self):
        service, _ = offline_service()
        answer = NeighborsPacket(nodes=[], expiration=default_expiration())
        service.datagram_received(encode_packet(answer, PEER), PEER_ADDR)
        service.datagram_received(b"garbage", PEER_ADDR)
        assert service.stats["bad_packets"] == 1
        assert service._signers == {PEER_ADDR: PEER.public_key}


class TestLookup:
    def test_network_wide_lookup(self):
        async def scenario():
            services = await start_services(6)
            boot = services[0]
            try:
                for other in services[1:]:
                    await other.bond(boot.local_enode)
                found = await services[1].self_lookup()
                found_ids = {node.node_id for node in found}
                others = {s.node_id for s in services if s is not services[1]}
                assert len(found_ids & others) >= 3
            finally:
                await stop_services(services)

        run(scenario())

    def test_lookup_converges_with_no_peers(self):
        async def scenario():
            (lonely,) = await start_services(1, reply_timeout=0.1)
            try:
                found = await lonely.self_lookup()
                assert found == []
            finally:
                await stop_services([lonely])

        run(scenario())

    def test_lookup_is_bounded_against_a_responder_minting_fresh_ids(self):
        """Every FIND_NODE is answered with 16 IDs nobody has seen: each
        round "progresses" and leaves more to ask, so only the round cap
        ends the lookup (false friends, 1908.10141).  The uncapped lookup
        never returned; ``wait_for`` turns that into a failure."""

        async def scenario():
            service = DiscoveryService(PrivateKey(5100))
            service.table.add(ENode(bytes([1]) * 64, "127.0.0.1", 30303, 30303))
            asked: list[bytes] = []

            async def minting_find_node(node, target):
                asked.append(node.node_id)
                return [
                    NeighborRecord(
                        "127.0.0.1", 30303, 30303,
                        (len(asked) * K_NEIGHBORS + i).to_bytes(64, "big"),
                    )
                    for i in range(K_NEIGHBORS)
                ]

            service.find_node = minting_find_node
            found = await asyncio.wait_for(service.lookup(bytes(64)), 5.0)
            assert len(found) == K_NEIGHBORS
            assert ALPHA < len(asked) <= LOOKUP_ROUNDS * ALPHA
            assert len(set(asked)) == len(asked)

        run(scenario())

    def test_pong_refreshes_the_known_record_and_keeps_its_tcp_port(self):
        """A PONG names no TCP port; bonding with a node whose record we
        hold (RLPx listener on another port) must not overwrite it with
        the guess "TCP = the UDP port it answered from"."""

        async def scenario():
            a, b = await start_services(2)
            b.tcp_port = 40404
            try:
                a.table.add(b.local_enode)
                assert await a.bond(b.local_enode)
                assert a.table.get(b.node_id).tcp_port == 40404
            finally:
                await stop_services([a, b])

        run(scenario())

    def test_stats_counters(self):
        async def scenario():
            a, b = await start_services(2)
            try:
                await a.ping(b.local_enode)
                await a.find_node(b.local_enode, a.node_id)
                assert a.stats["pings_sent"] >= 1
                assert a.stats["findnodes_sent"] == 1
                assert b.stats["pongs_sent"] >= 1
                assert b.stats["packets_received"] >= 2
            finally:
                await stop_services([a, b])

        run(scenario())

    def test_bad_datagram_counted_not_fatal(self):
        async def scenario():
            a, b = await start_services(2)
            try:
                transport = a._transport
                transport.sendto(b"garbage", (b.host, b.port))
                await asyncio.sleep(0.05)
                assert b.stats["bad_packets"] == 1
                assert await a.ping(b.local_enode)  # still functional
            finally:
                await stop_services([a, b])

        run(scenario())
