"""Fault injection for the live stack: a chaos TCP proxy and a datagram wrapper.

The open Internet the paper crawled injects faults continuously — peers
reset mid-handshake, stall inside STATUS, feed garbage frames.  This
module reproduces those faults *deterministically* so tests can assert
the exact :class:`~repro.nodefinder.records.DialOutcome` each one maps to:

* :class:`ChaosProxy` — a localhost TCP proxy between the crawler and a
  real node.  Client→upstream bytes pass verbatim; upstream→client bytes
  go through one configured :class:`FaultType`.
* :class:`ChaosDatagramTransport` — wraps the transport of a bound
  :class:`~repro.discovery.protocol.DiscoveryService` (assign it to
  ``service._transport`` after ``listen()``) and faults its outbound
  datagrams.

Fault → outcome mapping (asserted by ``tests/test_chaos_harvest.py``):

========== ==========================================================
LATENCY    harvest still completes (``FULL_HARVEST``), just slower
TRUNCATE   EOF mid-message → ``RLPX_FAILED`` / detail ``truncated``
GARBAGE    undecryptable bytes → ``RLPX_FAILED`` / detail ``protocol``
RESET      TCP RST mid-handshake → ``RLPX_FAILED`` / detail ``reset``
STALL      silence under a deadline → ``RLPX_FAILED`` / detail ``stalled``
========== ==========================================================
"""

from __future__ import annotations

import asyncio
import enum
import logging
import socket
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

logger = logging.getLogger(__name__)

_CHUNK = 65536


def _hard_reset(writer: asyncio.StreamWriter) -> None:
    """Close sending a TCP RST, not a FIN.

    ``transport.abort()`` alone lets the kernel send a normal FIN when the
    buffers are empty; SO_LINGER with a zero timeout forces the RST the
    RESET fault promises, so the victim sees ``ConnectionResetError``
    rather than a clean EOF.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
    transport = writer.transport
    if transport is not None:
        transport.abort()


class FaultType(enum.Enum):
    """What the chaos layer does to the byte stream."""

    LATENCY = "latency"    # delay every chunk, deliver intact
    TRUNCATE = "truncate"  # close cleanly (FIN) at the fault point
    GARBAGE = "garbage"    # substitute undecryptable bytes, then close
    RESET = "reset"        # hard TCP reset (RST) at the fault point
    STALL = "stall"        # deliver nothing past the fault point, stay open


@dataclass(frozen=True)
class ChaosConfig:
    """One fault, fully parameterised — no ambient randomness anywhere."""

    fault: FaultType
    #: injected delay per delivered chunk (LATENCY)
    latency: float = 0.02

    def garbage_bytes(self) -> bytes:
        """What GARBAGE substitutes: a deterministic RLPx-shaped junk
        message (valid 2-byte size prefix, undecryptable body)."""
        body = bytes((index * 37 + 11) % 251 for index in range(194))
        return len(body).to_bytes(2, "big") + body


class ChaosProxy:
    """A localhost TCP proxy injecting one fault into server→client bytes."""

    def __init__(
        self, upstream_host: str, upstream_port: int, config: ChaosConfig
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.config = config
        self.host = "127.0.0.1"
        self.port = 0
        self.faults_injected = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set[asyncio.Task] = set()

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_server(self._handle, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except (ConnectionError, OSError):
            writer.close()
            return
        upstream_pump = asyncio.ensure_future(self._pump_clean(reader, up_writer))
        downstream_pump = asyncio.ensure_future(self._pump_faulted(up_reader, writer))
        for task in (upstream_pump, downstream_pump):
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    @staticmethod
    async def _pump_clean(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                data = await reader.read(_CHUNK)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass

    async def _pump_faulted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Forward upstream→client bytes through the configured fault, which
        fires on the first byte (nothing clean is delivered before it)."""
        config = self.config
        fault = config.fault
        stalled = False
        try:
            while True:
                data = await reader.read(_CHUNK)
                if not data:
                    if not stalled:
                        writer.close()
                    break
                if stalled:
                    continue  # STALL swallows everything past the fault point
                if fault is FaultType.LATENCY:
                    await asyncio.sleep(config.latency)
                    writer.write(data)
                    await writer.drain()
                    continue
                self.faults_injected += 1
                if fault is FaultType.TRUNCATE:
                    writer.close()  # clean FIN mid-message
                    break
                if fault is FaultType.RESET:
                    _hard_reset(writer)  # RST, not FIN
                    break
                if fault is FaultType.GARBAGE:
                    writer.write(config.garbage_bytes())
                    await writer.drain()
                    writer.close()
                    break
                # STALL: keep the socket open, deliver nothing more; keep
                # draining upstream so its write side never blocks
                stalled = True
        except (ConnectionError, OSError):
            pass


class DatagramFault(enum.Enum):
    """What the chaos layer does to an outbound UDP datagram.

    Fault → observable mapping (asserted by ``tests/test_chaos_discovery.py``):

    ========== ==========================================================
    DROP       datagram never sent → PONG/NEIGHBORS waits time out
    DUPLICATE  datagram sent twice → receiver handles the replay
    REORDER    consecutive pair swapped on the wire
    CORRUPT    one byte flipped past the hash prefix → receiver counts a
               bad packet and the reply never comes
    ========== ==========================================================
    """

    DROP = "drop"
    DUPLICATE = "duplicate"
    REORDER = "reorder"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class DatagramChaosConfig:
    """One datagram fault, fully parameterised — no ambient randomness."""

    fault: DatagramFault
    #: fault only the first N outbound datagrams, then send cleanly
    #: (0 = every datagram); lets tests drive "drop once, retry succeeds"
    first: int = 0


def _corrupt_datagram(data: bytes) -> bytes:
    """Flip one byte past the 32-byte hash prefix (discv4 framing), so the
    receiver's hash check fails and the datagram counts as a bad packet."""
    if not data:
        return data
    index = 32 if len(data) > 32 else len(data) - 1
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


class ChaosDatagramTransport:
    """``asyncio.DatagramTransport`` wrapper faulting *outbound* datagrams.

    Wraps the transport a :class:`~repro.discovery.protocol.DiscoveryService`
    sends through; inbound datagrams are untouched (fault the other side's
    transport to disturb them).  ``on_fault(fault_name)`` is an optional
    observability hook: a test that wants the journal record passes
    ``lambda fault: telemetry.emit("datagram_fault", fault=fault)``.
    """

    def __init__(
        self,
        inner: asyncio.DatagramTransport,
        config: DatagramChaosConfig,
        on_fault: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._inner = inner
        self.config = config
        self.on_fault = on_fault
        self.sent = 0
        self.faults_injected = 0
        self._held: Optional[Tuple[bytes, Optional[tuple]]] = None

    def _record(self, fault: DatagramFault) -> None:
        self.faults_injected += 1
        if self.on_fault is not None:
            self.on_fault(fault.value)

    def _flush_held(self) -> None:
        if self._held is not None:
            data, addr = self._held
            self._held = None
            self._inner.sendto(data, addr)

    def sendto(self, data: bytes, addr=None) -> None:
        self.sent += 1
        if self.config.first and self.sent > self.config.first:
            self._flush_held()
            self._inner.sendto(data, addr)
            return
        fault = self.config.fault
        if fault is DatagramFault.DROP:
            self._record(fault)
            return
        if fault is DatagramFault.DUPLICATE:
            self._record(fault)
            self._inner.sendto(data, addr)
            self._inner.sendto(data, addr)
            return
        if fault is DatagramFault.CORRUPT:
            self._record(fault)
            self._inner.sendto(_corrupt_datagram(data), addr)
            return
        # REORDER: hold one datagram, send its successor first, then it —
        # a deterministic pair swap
        if self._held is None:
            self._held = (data, addr)
            return
        self._record(fault)
        held_data, held_addr = self._held
        self._held = None
        self._inner.sendto(data, addr)
        self._inner.sendto(held_data, held_addr)

    def close(self) -> None:
        # a REORDER hold must not out-live the transport: deliver it late
        # rather than never
        self._flush_held()
        self._inner.close()
