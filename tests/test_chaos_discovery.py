"""UDP discovery chaos: every injected datagram fault maps to one
deterministic, observable telemetry outcome.

The TCP chaos layer (``test_chaos_harvest``) pins stream faults to
DialOutcomes; this file does the same for the discovery socket — a
:class:`ChaosDatagramTransport` wrapped around one side's outbound UDP
path, with the effect asserted on real sockets *and* on the telemetry
counters/journal the fault must land in.
"""

import asyncio
import io

import pytest

from repro.crypto import secp256k1
from repro.crypto.keccak import keccak256
from repro.crypto.keys import PrivateKey
from repro.discovery.enode import ENode
from repro.discovery.protocol import DiscoveryService
from repro.telemetry import EventJournal, Telemetry, read_events
from tests.support.chaos import (
    ChaosDatagramTransport,
    DatagramChaosConfig,
    DatagramFault,
    _corrupt_datagram,
)

pytestmark = pytest.mark.chaos


def run(coro):
    return asyncio.run(coro)


def make_telemetry():
    """A facade over an in-memory journal, so a test can read back the
    records one fault leaves."""
    stream = io.StringIO()
    return Telemetry(journal=EventJournal(stream)), stream


async def pair(chaos=None, telemetry=None):
    """Two bound discovery services; ``a`` optionally faulted outbound, each
    fault journalled as a ``datagram_fault`` record."""
    telemetry = telemetry if telemetry is not None else Telemetry()
    a = DiscoveryService(PrivateKey(5001), telemetry=telemetry)
    b = DiscoveryService(PrivateKey(5002))
    await a.listen()
    await b.listen()
    if chaos is not None:
        fault(a, chaos, on_fault=lambda name: telemetry.emit("datagram_fault", fault=name))
    return a, b


def records(stream, kind):
    return [e for e in read_events(stream.getvalue().splitlines()) if e.type == kind]


def fault_count(stream, fault):
    return sum(1 for e in records(stream, "datagram_fault") if e.fields["fault"] == fault)


class TestFakeTransport:
    """Wire-order semantics, provable without sockets."""

    class FakeTransport:
        def __init__(self):
            self.sent = []
            self.closed = False

        def sendto(self, data, addr=None):
            self.sent.append(data)

        def close(self):
            self.closed = True

    def test_drop_sends_nothing(self):
        fake = self.FakeTransport()
        chaos = ChaosDatagramTransport(
            fake, DatagramChaosConfig(DatagramFault.DROP)
        )
        chaos.sendto(b"one", None)
        chaos.sendto(b"two", None)
        assert fake.sent == []
        assert chaos.faults_injected == 2

    def test_drop_first_n_then_clean(self):
        fake = self.FakeTransport()
        chaos = ChaosDatagramTransport(
            fake, DatagramChaosConfig(DatagramFault.DROP, first=1)
        )
        chaos.sendto(b"lost", None)
        chaos.sendto(b"kept", None)
        assert fake.sent == [b"kept"]
        assert chaos.faults_injected == 1

    def test_duplicate_sends_twice(self):
        fake = self.FakeTransport()
        chaos = ChaosDatagramTransport(
            fake, DatagramChaosConfig(DatagramFault.DUPLICATE)
        )
        chaos.sendto(b"ping", None)
        assert fake.sent == [b"ping", b"ping"]

    def test_reorder_swaps_consecutive_pair(self):
        fake = self.FakeTransport()
        chaos = ChaosDatagramTransport(
            fake, DatagramChaosConfig(DatagramFault.REORDER)
        )
        chaos.sendto(b"first", None)
        assert fake.sent == []  # held back
        chaos.sendto(b"second", None)
        assert fake.sent == [b"second", b"first"]
        assert chaos.faults_injected == 1

    def test_reorder_hold_flushed_on_close(self):
        fake = self.FakeTransport()
        chaos = ChaosDatagramTransport(
            fake, DatagramChaosConfig(DatagramFault.REORDER)
        )
        chaos.sendto(b"held", None)
        chaos.close()
        assert fake.sent == [b"held"]  # late, not lost
        assert fake.closed

    def test_corrupt_flips_byte_past_hash_prefix(self):
        original = bytes(range(64))
        corrupted = _corrupt_datagram(original)
        assert len(corrupted) == len(original)
        assert corrupted[:32] == original[:32]
        assert corrupted[32] == original[32] ^ 0xFF
        assert corrupted[33:] == original[33:]

    def test_on_fault_hook_fires_with_fault_name(self):
        names = []
        fake = self.FakeTransport()
        chaos = ChaosDatagramTransport(
            fake,
            DatagramChaosConfig(DatagramFault.DROP),
            on_fault=names.append,
        )
        chaos.sendto(b"x", None)
        assert names == ["drop"]


class TestDiscoveryFaults:
    """Real sockets: fault on one side, telemetry verdict on both."""

    def test_drop_times_out_ping_and_counts_fault(self):
        async def scenario():
            telemetry, stream = make_telemetry()
            a, b = await pair(
                chaos=DatagramChaosConfig(DatagramFault.DROP),
                telemetry=telemetry,
            )
            a.reply_timeout = 0.2
            try:
                pong = await a.ping_addr((b.host, b.port), b.node_id)
                assert pong is None  # the PING never left the host
                assert b.stats["packets_received"] == 0
                assert fault_count(stream, "drop") == 1
                events = list(read_events(stream.getvalue().splitlines()))
                assert [e.type for e in events] == ["datagram_fault"]
                assert events[0].fields["fault"] == "drop"
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_drop_first_recovers_under_bond_retry(self):
        """A bond is one PING: a dropped PING fails that bond, and the next
        ``bond()`` — the crawler's next lookup round — is the retry."""

        async def scenario():
            telemetry, stream = make_telemetry()
            a, b = await pair(
                chaos=DatagramChaosConfig(DatagramFault.DROP, first=1),
                telemetry=telemetry,
            )
            a.reply_timeout = 0.2
            target = ENode(
                node_id=b.node_id, ip=b.host, udp_port=b.port, tcp_port=b.port
            )
            try:
                assert not await a.bond(target)  # the one PING was dropped
                assert not a.is_bonded(b.node_id)
                assert await a.bond(target)  # the next bond's PING lands
                assert a.is_bonded(b.node_id)
                assert fault_count(stream, "drop") == 1
                assert [e.fields["ok"] for e in records(stream, "bond")] == [
                    False,
                    True,
                ]
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_duplicate_delivers_twice_and_still_bonds(self):
        async def scenario():
            telemetry, stream = make_telemetry()
            a, b = await pair(
                chaos=DatagramChaosConfig(DatagramFault.DUPLICATE),
                telemetry=telemetry,
            )
            try:
                pong = await a.ping_addr((b.host, b.port), b.node_id)
                assert pong is not None  # replays don't break the exchange
                # the duplicate may still sit in b's socket buffer when the
                # first PONG resolves the waiter; let it drain
                await asyncio.sleep(0.05)
                assert b.stats["packets_received"] == 2
                assert b.stats["bad_packets"] == 0
                assert fault_count(stream, "duplicate") == 1
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_corrupt_counts_bad_packet_and_gets_no_reply(self):
        async def scenario():
            telemetry, stream = make_telemetry()
            a, b = await pair(
                chaos=DatagramChaosConfig(DatagramFault.CORRUPT),
                telemetry=telemetry,
            )
            a.reply_timeout = 0.2
            try:
                pong = await a.ping_addr((b.host, b.port), b.node_id)
                assert pong is None  # the mangled PING fails b's hash check
                assert b.stats["packets_received"] == 1
                assert b.stats["bad_packets"] == 1
                assert fault_count(stream, "corrupt") == 1
                events = list(read_events(stream.getvalue().splitlines()))
                assert [e.type for e in events] == ["datagram_fault"]
            finally:
                a.close()
                b.close()

        run(scenario())


@pytest.fixture
def recoveries(monkeypatch):
    """``recoveries()`` starts counting each hinted check by its verdict
    and each full recovery; returns ``{"hint held": n, "hint failed": n,
    "recovered": n}``, live."""
    counts = {"hint held": 0, "hint failed": 0, "recovered": 0}
    signed_by, recover = secp256k1._signed_by, secp256k1._recover

    def counting_signed_by(*args):
        held = signed_by(*args)
        counts["hint held" if held else "hint failed"] += 1
        return held

    def counting_recover(*args):
        counts["recovered"] += 1
        return recover(*args)

    def start() -> dict:
        monkeypatch.setattr(secp256k1, "_signed_by", counting_signed_by)
        monkeypatch.setattr(secp256k1, "_recover", counting_recover)
        return counts

    return start


class ResealingCorruptor:
    """Flips a bit of each outbound datagram's signature ``s`` and fixes up
    the hash: the damage reaches the receiver's recovery, not its hash check."""

    def __init__(self, inner):
        self._inner = inner

    def sendto(self, data, addr=None):
        envelope = bytearray(data[32:])
        envelope[40] ^= 0x01
        self._inner.sendto(keccak256(bytes(envelope)) + bytes(envelope), addr)

    def close(self):
        self._inner.close()


async def bonded_pair():
    """``a`` and ``b`` after a clean bond: each holds the other's key as the
    hint for its address."""
    a, b = await pair()
    assert await a.bond(b.local_enode)
    assert b._signers[(a.host, a.port)] == a.private_key.public_key
    assert a._signers[(b.host, b.port)] == b.private_key.public_key
    return a, b


def fault(service, config, on_fault=None):
    service._transport = ChaosDatagramTransport(service._transport, config, on_fault)


class TestHintedSender:
    """Faults on an address the receiver already holds a key for: a replay
    or a reordering still decodes on the hint, and a damaged signature
    falls back to the full recovery and never passes as the hinted key."""

    def test_duplicated_datagrams_decode_on_the_hint(self, recoveries):
        async def scenario():
            a, b = await bonded_pair()
            fault(a, DatagramChaosConfig(DatagramFault.DUPLICATE))
            counts = recoveries()
            try:
                assert await a.ping_addr((b.host, b.port), b.node_id) is not None
                await asyncio.sleep(0.05)  # the second PONG
                assert b.stats["bad_packets"] == a.stats["bad_packets"] == 0
                # b PONGs both copies; the second PONG answers a PING
                # already answered
                assert a.stats["unsolicited_replies"] == 1
                assert counts == {"hint held": 4, "hint failed": 0, "recovered": 0}
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_reordered_datagrams_decode_on_the_hint(self, recoveries):
        async def scenario():
            a, b = await bonded_pair()
            fault(a, DatagramChaosConfig(DatagramFault.REORDER))
            counts = recoveries()
            try:
                pong, records = await asyncio.gather(
                    a.ping_addr((b.host, b.port), b.node_id),
                    a.find_node(b.local_enode, a.node_id),
                )
                assert pong is not None
                assert [record.node_id for record in records] == [a.node_id]
                assert counts == {"hint held": 4, "hint failed": 0, "recovered": 0}
                assert a.stats["unsolicited_replies"] == 0
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_corrupted_signature_falls_back_and_is_not_the_hinted_key(self, recoveries):
        async def scenario():
            a, b = await bonded_pair()
            a.reply_timeout = 0.2
            b._transport = ResealingCorruptor(b._transport)
            counts = recoveries()
            try:
                assert await a.find_node(b.local_enode, a.node_id) == []
                # b checks a's FIND_NODE on the hint; a checks b's damaged
                # NEIGHBORS, the check fails, and a recovers
                assert counts == {"hint held": 1, "hint failed": 1, "recovered": 1}
                # s' is still in range, so the NEIGHBORS recovers to another
                # key: an unsolicited reply, and the hint from then on
                assert a.stats["unsolicited_replies"] == 1
                assert a.stats["bad_packets"] == 0
                assert a._signers[(b.host, b.port)] != b.private_key.public_key
            finally:
                a.close()
                b.close()

        run(scenario())

    def test_corrupted_hash_from_a_hinted_address_is_rejected_first(self, recoveries):
        async def scenario():
            a, b = await bonded_pair()
            a.reply_timeout = 0.2
            fault(a, DatagramChaosConfig(DatagramFault.CORRUPT))
            counts = recoveries()
            try:
                assert await a.ping_addr((b.host, b.port), b.node_id) is None
                assert b.stats["bad_packets"] == 1
                assert counts == {"hint held": 0, "hint failed": 0, "recovered": 0}
                assert b._signers[(a.host, a.port)] == a.private_key.public_key
            finally:
                a.close()
                b.close()

        run(scenario())
