"""ASYNC-BLOCK and ASYNC-CANCEL: event-loop discipline for the crawler.

The live NodeFinder is one process multiplexing hundreds of dials over a
single event loop (§4's maxActiveDialTasks).  A blocking call stalls
every in-flight dial at once, and a handler that eats
``asyncio.CancelledError`` turns ``stop()`` into a hang or — worse —
lets a half-cancelled loop keep mutating the node database behind the
scheduler's back.
"""

from __future__ import annotations

from typing import Iterator

import ast

from repro.devtools.astutil import (
    contains_await,
    dotted_name,
    import_aliases,
    resolve_call,
    walk_stopping_at_functions,
)
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register
from repro.devtools.source import ModuleSource

_BLOCKING_CALLS = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "socket.create_connection": "use `asyncio.open_connection(...)`",
    "socket.getaddrinfo": "use `loop.getaddrinfo(...)`",
    "socket.gethostbyname": "use `loop.getaddrinfo(...)`",
    "socket.gethostbyaddr": "use `loop.getaddrinfo(...)`",
    "subprocess.run": "use `asyncio.create_subprocess_exec(...)`",
    "subprocess.call": "use `asyncio.create_subprocess_exec(...)`",
    "subprocess.check_call": "use `asyncio.create_subprocess_exec(...)`",
    "subprocess.check_output": "use `asyncio.create_subprocess_exec(...)`",
    "urllib.request.urlopen": "use an executor or an async client",
}

_CANCELLED_NAMES = {
    "asyncio.CancelledError",
    "CancelledError",
    "concurrent.futures.CancelledError",
}

_BROAD_BASE = {"BaseException"}


def _async_functions(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _handler_names(handler_type: ast.AST | None) -> list[str]:
    """Dotted names of the exception classes an except clause catches."""
    if handler_type is None:
        return []
    nodes = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    names = []
    for node in nodes:
        name = dotted_name(node)
        if name is not None:
            names.append(name)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """True when the handler body contains any raise (bare or explicit)."""
    return any(
        isinstance(node, ast.Raise)
        for stmt in handler.body
        for node in walk_stopping_at_functions(stmt)
    )


@register
class AsyncBlocking(Rule):
    """Async functions must not call blocking primitives (time.sleep,
    blocking socket/subprocess/urllib calls) or spin in unbounded
    await-free loops; every iteration must yield to the event loop."""

    code = "ASYNC-BLOCK"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for func in _async_functions(module.tree):
            for node in walk_stopping_at_functions(func):
                if isinstance(node, ast.Call):
                    target = resolve_call(node.func, aliases)
                    hint = _BLOCKING_CALLS.get(target or "")
                    if hint is not None:
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"blocking call {target}() inside async def "
                            f"{func.name}; {hint}",
                        )
                elif isinstance(node, ast.While) and self._is_busy_loop(node):
                    yield self.finding(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"unbounded `while True` without an await inside async "
                        f"def {func.name}; the loop never yields to the event "
                        "loop",
                    )

    @staticmethod
    def _is_busy_loop(loop: ast.While) -> bool:
        test = loop.test
        always_true = isinstance(test, ast.Constant) and bool(test.value)
        if not always_true:
            return False
        if contains_await(loop):
            return False
        # a loop that can terminate (break/return/raise) is bounded compute,
        # not a scheduler-starving spin — leave those to human judgement
        escapes = (ast.Break, ast.Return, ast.Raise)
        return not any(
            isinstance(node, escapes) for node in walk_stopping_at_functions(loop)
        )


@register
class AsyncCancellation(Rule):
    """Never swallow asyncio.CancelledError: any handler that catches it
    (explicitly, or via bare except / except BaseException around
    awaited code) must re-raise."""

    code = "ASYNC-CANCEL"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for parent in ast.walk(module.tree):
            if not isinstance(parent, ast.Try):
                continue
            try_awaits = any(contains_await(stmt) for stmt in parent.body)
            for handler in parent.handlers:
                names = _handler_names(handler.type)
                explicit = any(name in _CANCELLED_NAMES for name in names)
                broad = handler.type is None or any(
                    name in _BROAD_BASE for name in names
                )
                if not explicit and not (broad and try_awaits):
                    continue
                if _reraises(handler):
                    continue
                caught = (
                    "asyncio.CancelledError"
                    if explicit
                    else "BaseException (which includes asyncio.CancelledError)"
                )
                yield self.finding(
                    module,
                    handler.lineno,
                    handler.col_offset,
                    f"except clause catches {caught} without re-raising; "
                    "task cancellation is silently swallowed",
                )
