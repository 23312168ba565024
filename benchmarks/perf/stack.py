"""The per-layer stack table: one pinned cost per layer primitive.

Runs in its own child process on every traced run, whatever the workload,
by timing calls into each layer's public functions.  A regression in an
end-to-end metric is meant to be read against this table: the row that
moved names the layer.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.chain import mainnet_genesis
from repro.chain.synthetic import warm_synthetic_hashes
from repro.crypto import PrivateKey, ecies_decrypt, ecies_encrypt, keccak256
from repro.crypto.aes import aes_ctr
from repro.crypto.keccak import keccak256_batch
from repro.devp2p.messages import Capability, HelloMessage
from repro.discovery.packets import (
    Endpoint,
    NeighborRecord,
    NeighborsPacket,
    PingPacket,
    decode_packet,
    encode_packet,
)
from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import CrawlStats
from repro.nodefinder.shard import NodeDBWriter
from repro.rlpx import FrameCodec
from repro.rlpx.handshake import (
    derive_secrets,
    make_ack,
    make_auth,
    read_ack,
    read_auth,
)
from repro.simnet.clock import WheelClock
from repro.simnet.node import DialOutcome, DialResult
from repro.telemetry.journal import Event, EventJournal

from spans import Tracer


def _key(label: bytes) -> PrivateKey:
    # full-width scalars: a small secret would make every multiplication cheap
    return PrivateKey.from_bytes(keccak256(b"perf stack table " + label))


INITIATOR, RESPONDER = _key(b"initiator"), _key(b"responder")
EPHEMERAL_I, EPHEMERAL_R = _key(b"ephemeral-i"), _key(b"ephemeral-r")


#: batches behind every row; rows that must not re-measure a warmed cache
#: prepare this many fresh inputs
REPEAT = 3


def per_call(fn: Callable[[], object], number: int) -> float:
    """Seconds per call: the median over ``REPEAT`` batches of ``number``."""
    batches = []
    for _ in range(REPEAT):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        batches.append((time.perf_counter() - started) / number)
    return statistics.median(batches)


def handshake_in_memory():
    """Both halves of the RLPx auth/ack exchange, no sockets."""
    ephemeral_i, nonce_i = EPHEMERAL_I, bytes(range(32))
    ephemeral_r, nonce_r = EPHEMERAL_R, bytes(range(32, 64))
    auth = make_auth(INITIATOR, RESPONDER.public_key, ephemeral_i, nonce_i)
    _, got_ephemeral_i, got_nonce_i, auth_wire = read_auth(RESPONDER, auth)
    ack = make_ack(INITIATOR.public_key, ephemeral_r, nonce_r)
    got_ephemeral_r, got_nonce_r, ack_wire = read_ack(INITIATOR, ack)
    return (
        derive_secrets(
            True, ephemeral_i, got_ephemeral_r, nonce_i, got_nonce_r, auth_wire, ack_wire
        ),
        derive_secrets(
            False, ephemeral_r, got_ephemeral_i, got_nonce_i, nonce_r, auth_wire, ack_wire
        ),
    )


def _dial_results(count: int) -> list:
    return [
        DialResult(
            timestamp=float(i),
            node_id=(i % 500).to_bytes(64, "big"),
            ip=f"10.0.{i % 250}.{i % 199 + 1}",
            tcp_port=30303,
            connection_type="dynamic-dial",
            outcome=DialOutcome.FULL_HARVEST,
            latency=0.05,
            duration=0.4,
            client_id="Geth/v1.8.2-stable/linux-amd64/go1.9.4",
            capabilities=[("eth", 62), ("eth", 63)],
            listen_port=30303,
            network_id=1,
            genesis_hash=b"\x11" * 32,
            total_difficulty=10**21,
            best_hash=(i % 97).to_bytes(32, "big"),
            dao_side="supports",
        )
        for i in range(count)
    ]


def _dial_events(count: int) -> list:
    return [
        Event(
            type="dial",
            ts=float(i),
            fields={
                "node_id": (i % 500).to_bytes(64, "big").hex(),
                "ip": "10.0.0.1",
                "tcp_port": 30303,
                "started": float(i),
                "outcome": "full-harvest",
                "connection_type": "dynamic-dial",
                "duration": 0.4,
                "latency": 0.05,
                "attempt": 1,
            },
        )
        for i in range(count)
    ]


def run_stack(spec: dict) -> dict:
    """Measure every stack-table row; ``smoke`` cuts iterations tenfold."""
    cut = 10 if spec["scale"] == "smoke" else 1
    tracer = Tracer("stack")
    layers = {}

    def row(metric: str, measure: Callable[[], float]) -> None:
        with tracer.span(metric):
            layers[metric] = measure()

    def n(full: int) -> int:
        return max(1, full // cut)

    # -- crypto ---------------------------------------------------------------
    block = bytes(range(64))
    payloads = [i.to_bytes(64, "big") for i in range(1000)]
    digest = keccak256(b"stack table")
    signature = INITIATOR.sign(digest)
    plaintext = bytes(200)
    envelope = ecies_encrypt(plaintext, RESPONDER.public_key)
    bulk = bytes(65536 // cut)
    row("crypto.keccak256_1block_us", lambda: per_call(lambda: keccak256(block), n(300)) * 1e6)
    row(
        "crypto.keccak256_batch_us_per_hash",
        lambda: per_call(lambda: keccak256_batch(payloads), n(10)) / len(payloads) * 1e6,
    )
    row("crypto.sign_ms", lambda: per_call(lambda: INITIATOR.sign(digest), n(20)) * 1e3)
    row("crypto.recover_ms", lambda: per_call(lambda: signature.recover(digest), n(10)) * 1e3)
    row(
        "crypto.ecdh_ms",
        lambda: per_call(lambda: INITIATOR.ecdh(RESPONDER.public_key), n(20)) * 1e3,
    )
    row(
        "crypto.ecies_encrypt_ms",
        lambda: per_call(lambda: ecies_encrypt(plaintext, RESPONDER.public_key), n(10)) * 1e3,
    )
    row(
        "crypto.ecies_decrypt_ms",
        lambda: per_call(lambda: ecies_decrypt(envelope, RESPONDER), n(20)) * 1e3,
    )
    row(
        "crypto.aes_ctr_mb_per_s",
        lambda: len(bulk) / 1e6 / per_call(lambda: aes_ctr(bytes(16), bytes(16), bulk), 1),
    )

    # -- rlp ------------------------------------------------------------------
    hello = HelloMessage(
        version=5,
        client_id="Geth/v1.8.2-stable/linux-amd64/go1.9.4",
        capabilities=[Capability("eth", 62), Capability("eth", 63)],
        listen_port=30303,
        node_id=INITIATOR.public_key.to_bytes(),
    )
    expiration = int(time.time()) + 3600
    neighbors = NeighborsPacket(
        nodes=[
            NeighborRecord("10.0.0.%d" % i, 30303, 30303, PrivateKey(100 + i).public_key.to_bytes())
            for i in range(12)
        ],
        expiration=expiration,
    )
    hello_wire, neighbors_wire = hello.encode(), neighbors.encode()
    row("rlp.hello_encode_us", lambda: per_call(hello.encode, n(1000)) * 1e6)
    row("rlp.hello_decode_us", lambda: per_call(lambda: HelloMessage.decode(hello_wire), n(1000)) * 1e6)
    row("rlp.neighbors_encode_us", lambda: per_call(neighbors.encode, n(300)) * 1e6)
    row(
        "rlp.neighbors_decode_us",
        lambda: per_call(lambda: NeighborsPacket.decode(neighbors_wire), n(300)) * 1e6,
    )

    # -- discovery ------------------------------------------------------------
    here = Endpoint("127.0.0.1", 30303, 30303)
    ping = PingPacket(version=4, sender=here, recipient=here, expiration=expiration)
    datagrams = [encode_packet(ping, INITIATOR), encode_packet(neighbors, INITIATOR)]

    def encode_both() -> None:
        encode_packet(ping, INITIATOR)
        encode_packet(neighbors, INITIATOR)

    def decode_both() -> None:
        for datagram in datagrams:
            decode_packet(datagram)

    row("discovery.encode_packet_ms", lambda: per_call(encode_both, n(10)) / 2 * 1e3)
    row("discovery.decode_packet_ms", lambda: per_call(decode_both, n(5)) / 2 * 1e3)

    # -- rlpx -----------------------------------------------------------------
    row("rlpx.handshake_ms", lambda: per_call(handshake_in_memory, n(5)) * 1e3)
    initiator_secrets, responder_secrets = handshake_in_memory()
    sender, receiver = FrameCodec(initiator_secrets), FrameCodec(responder_secrets)
    payload = bytes(1024)
    row(
        "rlpx.frame_roundtrip_us",
        lambda: per_call(
            lambda: receiver.decode_frame(sender.encode_frame(0x10, payload)), n(10)
        )
        * 1e6,
    )

    # -- chain ----------------------------------------------------------------
    genesis = mainnet_genesis()
    fresh = [genesis.copy(number=i + 1) for i in range(REPEAT * n(100))]
    pending = iter(fresh)
    row(
        "chain.header_hash_us",
        lambda: per_call(lambda: next(pending).hash(), len(fresh) // REPEAT) * 1e6,
    )
    heights = range(1, n(10_000) + 1)
    seeds = iter(b"stack-table-%d" % i for i in range(REPEAT))
    row(
        "chain.synthetic_warm_us_per_hash",
        lambda: per_call(lambda: warm_synthetic_hashes(next(seeds), heights), 1)
        / len(heights)
        * 1e6,
    )

    # -- simnet event core ------------------------------------------------------
    events = n(200_000)

    def drain_wheel() -> None:
        clock = WheelClock()
        for i in range(events):
            clock.schedule(i * 0.01, _noop)
        clock.run_until(events * 0.01)

    row("simnet.clock_events_per_s", lambda: events / per_call(drain_wheel, 1))

    # -- nodefinder fold / journal append -----------------------------------------
    results = _dial_results(n(5000))

    def fold_all() -> None:
        writer = NodeDBWriter(NodeDB(), CrawlStats())
        for result in results:
            writer.submit(result)

    row("nodefinder.db_observe_us", lambda: per_call(fold_all, 1) / len(results) * 1e6)
    dial_events = _dial_events(n(20_000))
    scratch = Path(tempfile.mkdtemp(dir=spec["workdir"]))
    counter = iter(range(REPEAT))

    def append_all() -> None:
        with EventJournal.open(scratch / f"append-{next(counter)}.jsonl") as journal:
            for event in dial_events:
                journal.emit(event)

    row(
        "telemetry.journal_append_us",
        lambda: per_call(append_all, 1) / len(dial_events) * 1e6,
    )
    return {"workload": "stack", "scale": spec["scale"], "layers": layers, "spans": tracer.rows}


def _noop() -> None:
    pass
