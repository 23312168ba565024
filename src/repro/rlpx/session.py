"""An asyncio RLPx session: handshake plus framed message I/O over TCP.

``open_session`` dials and initiates; ``accept_session`` wraps an incoming
connection.  Both return an :class:`RLPxSession` whose ``send_message`` /
``read_message`` move (code, rlp-payload) pairs, with the TCP socket's
smoothed RTT exposed for the latency measurements NodeFinder logs (§4).
"""

from __future__ import annotations

import asyncio
import socket
import struct
import sys
from typing import Optional

from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import HandshakeError
from repro.rlpx.frame import HEADER_LEN, MAC_LEN, FrameCodec
from repro.rlpx.handshake import (
    HandshakeResult,
    initiate_handshake,
    respond_handshake,
)
from repro.telemetry.spans import Span

#: Geth's frameReadTimeout / frameWriteTimeout (§4).
FRAME_READ_TIMEOUT = 30.0
FRAME_WRITE_TIMEOUT = 20.0

#: Geth's defaultDialTimeout (§4).
DIAL_TIMEOUT = 15.0

#: Upper bound on the whole auth/ack exchange.
HANDSHAKE_TIMEOUT = 10.0


class RLPxSession:
    """A live encrypted connection to one peer."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        handshake: HandshakeResult,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.handshake = handshake
        self.codec = FrameCodec(handshake.secrets)
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def remote_node_id(self) -> bytes:
        return self.handshake.remote_node_id

    def smoothed_rtt(self) -> Optional[float]:
        """The kernel's smoothed RTT for the socket, in seconds.

        NodeFinder records this as the peer's connection latency every time
        a message moves (§4).  Only available on Linux (TCP_INFO).
        """
        sock = self._writer.get_extra_info("socket")
        if sock is None or not sys.platform.startswith("linux"):
            return None
        try:
            info = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 104)
            # struct tcp_info: 8 leading u8 fields, then u32s; tcpi_rtt
            # (smoothed RTT, usec) is the 17th u32.
            srtt_usec = struct.unpack_from("I", info, 8 + 4 * 16)[0]
            return srtt_usec / 1e6
        except (OSError, struct.error):
            return None

    async def send_message(self, code: int, payload: bytes) -> None:
        """Frame and send one message."""
        frame = self.codec.encode_frame(code, payload)
        self._writer.write(frame)
        self.bytes_sent += len(frame)
        await asyncio.wait_for(self._writer.drain(), FRAME_WRITE_TIMEOUT)

    async def read_message(self) -> tuple[int, bytes]:
        """Read one message → (code, payload). Raises on MAC/size errors."""
        header = await asyncio.wait_for(
            self._reader.readexactly(HEADER_LEN + MAC_LEN), FRAME_READ_TIMEOUT
        )
        body_size = self.codec.decode_header(header)
        body = await asyncio.wait_for(
            self._reader.readexactly(self.codec.padded_body_len(body_size)),
            FRAME_READ_TIMEOUT,
        )
        self.bytes_received += len(header) + len(body)
        return self.codec.decode_body(body, body_size)

    def close(self) -> None:
        self._writer.close()


async def open_session(
    host: str,
    port: int,
    private_key: PrivateKey,
    remote_public_key: PublicKey,
    dial_timeout: float = DIAL_TIMEOUT,
    handshake_timeout: float = HANDSHAKE_TIMEOUT,
    trace: Optional[Span] = None,
) -> RLPxSession:
    """Dial ``host:port`` and run the initiator handshake.

    The TCP connect and the auth/ack exchange run under separate budgets,
    and every failure raises a :class:`HandshakeError` whose ``stage`` /
    ``kind`` classify it (refused vs. reset vs. stalled vs. garbage) for
    the crawler's fine-grained dial accounting.  When ``trace`` is given,
    ``connect`` and ``rlpx`` child spans time the two phases.
    """
    connect_span = trace.child("connect") if trace is not None else None

    def _fail(span: Optional[Span], kind: str) -> None:
        if span is not None:
            span.finish(kind)

    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), dial_timeout
        )
    except asyncio.TimeoutError as exc:
        _fail(connect_span, "timeout")
        raise HandshakeError(
            f"dial {host}:{port} timed out", stage="connect", kind="timeout"
        ) from exc
    except ConnectionRefusedError as exc:
        _fail(connect_span, "refused")
        raise HandshakeError(
            f"dial {host}:{port} refused", stage="connect", kind="refused"
        ) from exc
    except (ConnectionError, OSError) as exc:
        _fail(connect_span, "unreachable")
        raise HandshakeError(
            f"dial {host}:{port} failed: {exc}", stage="connect", kind="unreachable"
        ) from exc
    if connect_span is not None:
        connect_span.finish()
    rlpx_span = trace.child("rlpx") if trace is not None else None
    try:
        result = await asyncio.wait_for(
            initiate_handshake(reader, writer, private_key, remote_public_key),
            handshake_timeout,
        )
    except HandshakeError as exc:
        writer.close()
        _fail(rlpx_span, exc.kind or "failed")
        raise
    except asyncio.IncompleteReadError as exc:
        writer.close()
        _fail(rlpx_span, "truncated")
        raise HandshakeError(
            f"handshake with {host}:{port} truncated: {exc}",
            stage="rlpx",
            kind="truncated",
        ) from exc
    except asyncio.TimeoutError as exc:
        writer.close()
        _fail(rlpx_span, "timeout")
        raise HandshakeError(
            f"handshake with {host}:{port} stalled", stage="rlpx", kind="timeout"
        ) from exc
    except (ConnectionError, OSError) as exc:
        writer.close()
        _fail(rlpx_span, "reset")
        raise HandshakeError(
            f"handshake with {host}:{port} reset: {exc}", stage="rlpx", kind="reset"
        ) from exc
    if rlpx_span is not None:
        rlpx_span.finish()
    return RLPxSession(reader, writer, result)


async def accept_session(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    private_key: PrivateKey,
) -> RLPxSession:
    """Run the responder handshake on an accepted connection."""
    try:
        result = await asyncio.wait_for(
            respond_handshake(reader, writer, private_key), HANDSHAKE_TIMEOUT
        )
    except HandshakeError:
        writer.close()
        raise
    except (
        asyncio.IncompleteReadError,
        asyncio.TimeoutError,
        ConnectionError,
        OSError,
    ) as exc:
        writer.close()
        raise HandshakeError(f"inbound handshake failed: {exc}") from exc
    return RLPxSession(reader, writer, result)
