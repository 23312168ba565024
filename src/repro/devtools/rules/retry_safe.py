"""RETRY-SAFE: network awaits in the crawler must run under a deadline.

The live NodeFinder talks to arbitrary Internet peers, and a peer that
accepts the TCP connection and then sends nothing parks a raw
``await reader.readexactly(...)`` forever — one silent peer pins a dial
slot for the rest of the run (§4's budget is 16 slots total).  Inside
``repro.nodefinder`` and ``repro.rlpx`` every await of a network
primitive must therefore sit under an explicit deadline: wrapped in
``asyncio.wait_for(...)``, inside an ``async with asyncio.timeout(...)``
block, or suppressed with ``# reprolint: disable=RETRY-SAFE`` when the
*caller* provably applies the budget (the RLPx handshake helpers, which
``open_session``/``accept_session`` run under ``wait_for``).
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.devtools.astutil import (
    import_aliases,
    resolve_call,
    walk_stopping_at_functions,
)
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource

#: stream/transport method names that block until the remote acts
_NETWORK_ATTRS = {
    "readexactly",
    "readuntil",
    "readline",
    "drain",
    "sendall",
    "read_message",
    "send_message",
}

#: module-level coroutines that open sockets (resolved through aliases)
_NETWORK_CALLS = {"asyncio.open_connection"}

#: context managers that put everything inside them under a deadline
_TIMEOUT_CONTEXTS = {"asyncio.timeout", "asyncio.timeout_at"}


@register
class RetrySafe(Rule):
    """In repro.nodefinder / repro.rlpx, never await a network primitive
    (open_connection, readexactly/readuntil/readline, drain, sendall,
    read_message/send_message) directly: put it under a deadline — a
    harvest stage's bounded(...), asyncio.wait_for, or `async with
    asyncio.timeout(...)`."""

    code = "RETRY-SAFE"
    scope = ("nodefinder", "rlpx")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            deadlined = self._deadlined_awaits(func, aliases)
            for node in walk_stopping_at_functions(func):
                if not isinstance(node, ast.Await) or node in deadlined:
                    continue
                label = self._network_target(node.value, aliases)
                if label is None:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"raw network await {label}() inside async def "
                    f"{func.name} has no deadline; a silent peer parks this "
                    "forever — wrap it in asyncio.wait_for / asyncio.timeout "
                    "or run it under a harvest stage's bounded(...)",
                )

    def _deadlined_awaits(
        self, func: ast.AsyncFunctionDef, aliases: dict[str, str]
    ) -> set[ast.Await]:
        """Awaits lexically inside an ``async with asyncio.timeout(...)``."""
        safe: set[ast.Await] = set()
        for node in walk_stopping_at_functions(func):
            if not isinstance(node, ast.AsyncWith):
                continue
            under_timeout = any(
                isinstance(item.context_expr, ast.Call)
                and resolve_call(item.context_expr.func, aliases)
                in _TIMEOUT_CONTEXTS
                for item in node.items
            )
            if not under_timeout:
                continue
            for stmt in node.body:
                safe.update(
                    child
                    for child in walk_stopping_at_functions(stmt)
                    if isinstance(child, ast.Await)
                )
        return safe

    @staticmethod
    def _network_target(value: ast.AST, aliases: dict[str, str]) -> str | None:
        """The display name of a directly-awaited network call, else None.

        ``await asyncio.wait_for(reader.readexactly(n), t)`` is clean by
        construction: the awaited call is ``wait_for``, and the primitive
        appears only as its argument.
        """
        if not isinstance(value, ast.Call):
            return None
        resolved = resolve_call(value.func, aliases)
        if resolved in _NETWORK_CALLS:
            return resolved
        if (
            isinstance(value.func, ast.Attribute)
            and value.func.attr in _NETWORK_ATTRS
        ):
            return value.func.attr
        return None
