"""NodeFinder's harvest over the real RLPx stack (live TCP peers).

``harvest`` performs exactly the §4 sequence against one peer: RLPx
handshake → DEVp2p HELLO → eth STATUS → GET_BLOCK_HEADERS for the DAO fork
block → DISCONNECT — at most three message exchanges, holding the peer slot
for well under a second on a LAN.  ``crawl_targets`` drives a list of
enodes and fills the same :class:`DialResult`/:class:`NodeDB` structures
the simulator produces, so every analysis runs unchanged on live data.

Robustness (the parts the paper's months-long deployment needed):

* every stage (TCP connect, RLPx auth/ack, HELLO, STATUS, DAO check) runs
  under its own :class:`~repro.resilience.StageBudgets` deadline;
* failures are classified — ``DialResult.failure_stage`` says *where* a
  dial died and ``failure_detail`` says *how* (refused vs. reset vs.
  stalled vs. truncated vs. garbage), instead of one catch-all timeout;
* transport-level failures can be retried under a deterministic
  :class:`~repro.resilience.RetryPolicy`;
* one crashing dial can never take down a ``crawl_targets`` batch.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
from typing import Callable, Iterable, Optional

from repro.crypto.keys import PrivateKey, PublicKey
from repro.devp2p.messages import Capability, DisconnectReason, HelloMessage
from repro.devp2p.peer import DevP2PPeer
from repro.discovery.enode import ENode
from repro.errors import HandshakeError, PeerDisconnected, ProtocolError, ReproError
from repro.ethproto import messages as eth
from repro.ethproto.handshake import harvest_dao_check, run_eth_handshake
from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import DialOutcome, DialResult
from repro.nodefinder.shard import NodeDBWriter
from repro.resilience import (
    RetryPolicy,
    StageBudgets,
    StageTimeout,
    bounded,
)
from repro.rlpx.session import open_session
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.spans import Span

logger = logging.getLogger(__name__)

#: outcomes worth a second attempt: the transport failed before the peer
#: said anything, so a retry may still harvest (a completed-but-rejected
#: dial — Too many peers, useless peer — is the peer's answer, not noise)
RETRYABLE_OUTCOMES = frozenset(
    {DialOutcome.TIMEOUT, DialOutcome.CONNECTION_REFUSED, DialOutcome.RLPX_FAILED}
)


def nodefinder_hello(key: PrivateKey, listen_port: int = 30303) -> HelloMessage:
    """The HELLO NodeFinder sends (Geth 1.7.3-based, eth/62+63)."""
    return HelloMessage(
        version=5,
        client_id="Geth/v1.7.3-stable-nodefinder/linux-amd64/go1.9.2",
        capabilities=[Capability("eth", 62), Capability("eth", 63)],
        listen_port=listen_port,
        node_id=key.public_key.to_bytes(),
    )


def nodefinder_status() -> eth.StatusMessage:
    """A Mainnet STATUS for the crawler: genesis as its head."""
    return eth.StatusMessage(
        protocol_version=63,
        network_id=1,
        total_difficulty=0,
        best_hash=eth.MAINNET_GENESIS_HASH,
        genesis_hash=eth.MAINNET_GENESIS_HASH,
    )


def _error_detail(exc: BaseException) -> str:
    """Fine-grained failure classification for mid-session errors."""
    if isinstance(exc, asyncio.IncompleteReadError):
        return "truncated"
    if isinstance(exc, asyncio.TimeoutError):
        return "stalled"
    if isinstance(exc, (ConnectionError, OSError)):
        return "reset"
    return "protocol"


def _handshake_fields(exc: HandshakeError) -> tuple[DialOutcome, str, str]:
    """Map a classified HandshakeError to (outcome, stage, detail)."""
    detail = "stalled" if exc.kind == "timeout" else exc.kind
    if exc.kind == "refused":
        return DialOutcome.CONNECTION_REFUSED, exc.stage, detail
    if exc.stage == "connect":
        return DialOutcome.TIMEOUT, exc.stage, detail
    return DialOutcome.RLPX_FAILED, exc.stage, detail


async def harvest(
    target: ENode,
    key: PrivateKey,
    connection_type: str = "dynamic-dial",
    dial_timeout: float = 5.0,
    clock: Callable[[], float] | None = None,
    budgets: StageBudgets | None = None,
    retry: RetryPolicy | None = None,
    retry_rng: Optional[random.Random] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> DialResult:
    """Run the full §4 harvest against one live peer.

    ``clock`` stamps the result record; callers running a scheduled crawl
    (``LiveNodeFinder``) pass their own so database timestamps share the
    scheduler's timeline.  Defaults to wall-clock epoch seconds, the
    paper's measurement-log convention.

    ``budgets`` gives every stage its own deadline (defaults to the flat
    ``dial_timeout`` per stage).  With ``retry``, transport failures
    (refused / reset / stalled — never a peer's actual answer) are
    re-attempted under the policy; the returned result carries the total
    ``attempts`` count and always reflects the final attempt.

    ``telemetry`` receives one ``record_dial`` per attempt (with a span
    whose children time each stage) and a ``record_retry`` per backoff.
    """
    stage_budgets = budgets if budgets is not None else StageBudgets.flat(dial_timeout)
    if retry is None:
        return await _harvest_once(
            target, key, connection_type, stage_budgets, clock, telemetry
        )

    async def attempt(number: int) -> DialResult:
        return await _harvest_once(
            target, key, connection_type, stage_budgets, clock, telemetry, number
        )

    def on_retry(attempt_number: int, delay: float) -> None:
        telemetry.record_retry(target.node_id, attempt_number, delay)

    return await retry.run(
        attempt,
        should_retry=lambda result: result.outcome in RETRYABLE_OUTCOMES,
        rng=retry_rng,
        on_retry=on_retry,
    )


async def _harvest_once(
    target: ENode,
    key: PrivateKey,
    connection_type: str,
    budgets: StageBudgets,
    clock: Callable[[], float] | None,
    telemetry: Telemetry = NULL_TELEMETRY,
    attempt: int = 1,
) -> DialResult:
    """One dial attempt under a fresh span; duration comes off the span."""
    span = telemetry.start_span("dial")
    result = await _harvest_attempt(target, key, connection_type, budgets, clock, span)
    result.duration = span.finish(result.outcome.value)
    result.attempts = attempt
    telemetry.record_dial(result, span=span, attempt=attempt)
    return result


async def _harvest_attempt(
    target: ENode,
    key: PrivateKey,
    connection_type: str,
    budgets: StageBudgets,
    clock: Callable[[], float] | None,
    span: Span,
) -> DialResult:
    now = clock if clock is not None else time.time
    base = dict(
        timestamp=now(),
        node_id=target.node_id,
        ip=target.ip,
        tcp_port=target.tcp_port,
        connection_type=connection_type,
    )
    try:
        session = await open_session(
            target.ip,
            target.tcp_port,
            key,
            PublicKey.from_bytes(target.node_id),
            dial_timeout=budgets.connect,
            handshake_timeout=budgets.rlpx,
            trace=span,
        )
    except HandshakeError as exc:
        outcome, stage, detail = _handshake_fields(exc)
        return DialResult(
            outcome=outcome,
            failure_stage=stage,
            failure_detail=detail,
            **base,
        )
    peer = DevP2PPeer(session, nodefinder_hello(key))
    hello_fields: dict = {}
    stage = "hello"
    stage_span = span.child("hello")
    try:
        remote_hello = await bounded(peer.handshake(), budgets.hello, "hello")
        stage_span.finish()
        hello_fields = dict(
            client_id=remote_hello.client_id,
            capabilities=[tuple(cap) for cap in remote_hello.capabilities],
            listen_port=remote_hello.listen_port,
        )
        latency = session.smoothed_rtt() or 0.0
        if peer.negotiated("eth") is None:
            await peer.disconnect(DisconnectReason.USELESS_PEER)
            return DialResult(
                outcome=DialOutcome.HELLO_THEN_DISCONNECT,
                disconnect_reason=DisconnectReason.USELESS_PEER,
                latency=latency,
                **base,
                **hello_fields,
            )
        stage = "status"
        stage_span = span.child("status")
        info = await bounded(
            run_eth_handshake(peer, nodefinder_status()), budgets.status, "status"
        )
        stage_span.finish()
        status = info.remote_status
        dao_side = None
        if status.genesis_hash == eth.MAINNET_GENESIS_HASH:
            stage = "dao"
            stage_span = span.child("dao")
            side, header = await bounded(
                harvest_dao_check(peer), budgets.dao, "dao"
            )
            stage_span.finish()
            dao_side = {"supports": "supports", "opposes": "opposes"}.get(
                side.value, "empty"
            )
        await peer.disconnect(DisconnectReason.CLIENT_QUITTING)
        return DialResult(
            outcome=DialOutcome.FULL_HARVEST,
            latency=session.smoothed_rtt() or latency,
            network_id=status.network_id,
            genesis_hash=status.genesis_hash,
            total_difficulty=status.total_difficulty,
            best_hash=status.best_hash,
            dao_side=dao_side,
            **base,
            **hello_fields,
        )
    except PeerDisconnected as exc:
        reason = exc.reason if isinstance(exc.reason, DisconnectReason) else None
        outcome = (
            DialOutcome.HELLO_THEN_DISCONNECT
            if hello_fields
            else DialOutcome.DISCONNECT_BEFORE_HELLO
        )
        return DialResult(
            outcome=outcome,
            disconnect_reason=reason,
            **base,
            **hello_fields,
        )
    except StageTimeout as exc:
        peer.abort()
        return DialResult(
            outcome=(
                DialOutcome.HELLO_NO_STATUS if hello_fields else DialOutcome.RLPX_FAILED
            ),
            failure_stage=exc.stage,
            failure_detail="stalled",
            **base,
            **hello_fields,
        )
    except (ProtocolError, ReproError, ConnectionError, OSError, asyncio.TimeoutError) as exc:
        peer.abort()
        return DialResult(
            outcome=(
                DialOutcome.HELLO_NO_STATUS if hello_fields else DialOutcome.RLPX_FAILED
            ),
            failure_stage=stage,
            failure_detail=_error_detail(exc),
            **base,
            **hello_fields,
        )
    finally:
        peer.abort()


async def crawl_targets(
    targets: Iterable[ENode],
    key: PrivateKey | None = None,
    concurrency: int = 16,
    dial_timeout: float = 5.0,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> NodeDB:
    """Harvest many live targets concurrently (maxActiveDialTasks=16, §4),
    each once, with no retry.

    The fan-out is exception-safe: a dial that raises is logged and
    dropped, never cancelling its siblings.
    """
    key = key or PrivateKey.generate()
    db = NodeDB()
    writer = NodeDBWriter(db, telemetry=telemetry)
    semaphore = asyncio.Semaphore(concurrency)

    async def one(target: ENode) -> None:
        async with semaphore:
            result = await harvest(
                target, key, dial_timeout=dial_timeout, telemetry=telemetry
            )
        writer.submit(result)

    target_list = list(targets)
    results = await asyncio.gather(
        *(one(target) for target in target_list), return_exceptions=True
    )
    for target, outcome in zip(target_list, results):
        if isinstance(outcome, asyncio.CancelledError):
            raise outcome
        if isinstance(outcome, BaseException):
            logger.warning(
                "dial of %s crashed: %r", target.short_id(), outcome
            )
    return db
