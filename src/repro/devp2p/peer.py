"""The DEVp2p peer state machine over an RLPx session.

Wraps an :class:`~repro.rlpx.session.RLPxSession` with the base-protocol
rules: HELLO must be the first message each way; DISCONNECT may arrive at
any time (raised as :class:`~repro.errors.PeerDisconnected`); PINGs are
answered automatically; subprotocol codes are translated through the
negotiated offset table.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.devp2p.capabilities import (
    ProtocolOffset,
    match_capabilities,
    offset_table,
    route_code,
)
from repro.devp2p.messages import (
    DISCONNECT_CODE,
    HELLO_CODE,
    PING_CODE,
    PONG_CODE,
    DisconnectMessage,
    DisconnectReason,
    HelloMessage,
    PingMessage,
    PongMessage,
)
from repro.errors import PeerDisconnected, ProtocolError
from repro.rlp import codec
from repro.rlpx.session import RLPxSession


class DevP2PPeer:
    """One DEVp2p session with a remote peer."""

    def __init__(self, session: RLPxSession, our_hello: HelloMessage) -> None:
        self.session = session
        self.our_hello = our_hello
        self.remote_hello: Optional[HelloMessage] = None
        self.offsets: list[ProtocolOffset] = []
        self.disconnect_reason: Optional[int] = None
        self._closed = False

    @property
    def remote_node_id(self) -> bytes:
        return self.session.remote_node_id

    async def handshake(self) -> HelloMessage:
        """Exchange HELLOs and negotiate capabilities.

        Raises :class:`PeerDisconnected` if the peer sends DISCONNECT
        instead of HELLO (the dominant outcome for a crawler — Table 1), and
        :class:`ProtocolError` for anything else out of order.
        """
        await self.session.send_message(HELLO_CODE, codec.encode(self.our_hello.serialize_rlp()))
        code, payload = await self.session.read_message()
        if code == DISCONNECT_CODE:
            message = DisconnectMessage.decode(payload)
            self.disconnect_reason = message.reason
            raise PeerDisconnected(message.reason_enum or message.reason)
        if code != HELLO_CODE:
            raise ProtocolError(f"expected HELLO, got message code {code:#x}")
        self.remote_hello = HelloMessage.decode(payload)
        shared = match_capabilities(
            list(self.our_hello.capabilities), list(self.remote_hello.capabilities)
        )
        self.offsets = offset_table(shared)
        return self.remote_hello

    def negotiated(self, name: str) -> Optional[ProtocolOffset]:
        """The offset entry for subprotocol ``name`` if negotiated."""
        for entry in self.offsets:
            if entry.capability.name == name:
                return entry
        return None

    async def send_subprotocol(self, name: str, relative_code: int, payload: bytes) -> None:
        """Send a message on a negotiated subprotocol."""
        entry = self.negotiated(name)
        if entry is None:
            raise ProtocolError(f"subprotocol {name!r} was not negotiated")
        if relative_code >= entry.length:
            raise ProtocolError(
                f"code {relative_code} out of range for {name} (len {entry.length})"
            )
        await self.session.send_message(entry.offset + relative_code, payload)

    async def read_subprotocol(self) -> tuple[str, int, bytes]:
        """Read the next subprotocol message → (name, relative code, payload).

        Base-protocol housekeeping (PING→PONG, ignoring stray PONGs) is
        handled internally; DISCONNECT raises :class:`PeerDisconnected`.
        """
        while True:
            code, payload = await self.session.read_message()
            if code == PING_CODE:
                await self.session.send_message(PONG_CODE, codec.encode([]))
                continue
            if code == PONG_CODE:
                continue
            if code == DISCONNECT_CODE:
                message = DisconnectMessage.decode(payload)
                self.disconnect_reason = message.reason
                raise PeerDisconnected(message.reason_enum or message.reason)
            if code == HELLO_CODE:
                raise ProtocolError("unexpected second HELLO")
            entry = route_code(self.offsets, code)
            if entry is None:
                raise ProtocolError(f"message code {code:#x} outside negotiated ranges")
            return entry.capability.name, code - entry.offset, payload

    async def disconnect(self, reason: DisconnectReason) -> None:
        """Send DISCONNECT and close the transport."""
        if self._closed:
            return
        self._closed = True
        try:
            message = DisconnectMessage(reason=int(reason))
            await self.session.send_message(DISCONNECT_CODE, message.encode())
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        self.session.close()

    def abort(self) -> None:
        """Close without a DISCONNECT (connection already broken)."""
        self._closed = True
        self.session.close()
