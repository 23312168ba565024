"""One plausible slip per lint code, in a real product file its scope covers.

``tests/test_devtools_lint.py`` lints each mutant and expects exactly one
finding of its code; ``tests/reach.py`` lints the RACE-RMW one and expects
the CLI to exit 1.
"""

from __future__ import annotations

from pathlib import Path

#: one plausible slip per code in a product file its scope covers, as
#: ``(path under repro/, [(old, new), ...])`` replacements, each anchor
#: present once; tier-1 without the linter's own tests passes on every one
#: (CHANGES.md has the run per code), so the code is what catches it
_HARVEST = "        async with self._semaphore:\n            result = await self._harvest("
_DIAL_EXCEPT = "            except (asyncio.TimeoutError, asyncio.QueueEmpty):\n"
PRODUCT_MUTANTS = {
    "SIM-DET": (  # a mined block stamped off the calendar, kept monotonic
        "chain/chain.py",
        [
            (
                "from typing import Optional, Union\n",
                "import datetime\nfrom typing import Optional, Union\n",
            ),
            (
                "        timestamp = parent.timestamp + BLOCK_INTERVAL\n",
                "        timestamp = max(parent.timestamp + 1,"
                " int(datetime.datetime.now().timestamp()))\n",
            ),
        ],
    ),
    "ASYNC-BLOCK": (  # a blocking sleep before the harvest of a dial
        "nodefinder/live.py",
        [
            (
                _HARVEST,
                "        async with self._semaphore:\n            time.sleep(0.01)\n"
                "            result = await self._harvest(",
            )
        ],
    ),
    "ASYNC-CANCEL": (  # the dial loop's queue wait eats a cancellation
        "nodefinder/live.py",
        [
            (
                _DIAL_EXCEPT,
                "            except (asyncio.TimeoutError, asyncio.QueueEmpty,"
                " asyncio.CancelledError):\n",
            )
        ],
    ),
    "EXC-SILENT": (  # the dial loop's queue wait eats every failure
        "nodefinder/live.py",
        [(_DIAL_EXCEPT, "            except Exception:\n")],
    ),
    "RACE-RMW": (  # the lookup count read before the lookup, written after
        "nodefinder/live.py",
        [
            (
                "            found = await self.discovery.lookup_all(target)\n"
                '            self.stats["lookups"] += 1\n',
                '            lookups = self.stats["lookups"]\n'
                "            found = await self.discovery.lookup_all(target)\n"
                '            self.stats["lookups"] = lookups + 1\n',
            )
        ],
    ),
    "RACE-STALE": (  # open the discovery service lazily, re-checking nothing
        "nodefinder/live.py",
        [
            (
                "        assert self.discovery is not None\n        while not self._stopping:",
                "        if self.discovery is None:\n"
                "            self.discovery = await self._open_discovery()\n"
                "        while not self._stopping:",
            )
        ],
    ),
    "TASK-LIFE-GATHER": (  # a lookup round's fan-out loses its exception safety
        "discovery/protocol.py",
        [
            (
                "                *(self.find_node(node, target) for node in candidates),\n"
                "                return_exceptions=True,\n",
                "                *(self.find_node(node, target) for node in candidates),\n",
            )
        ],
    ),
    "TASK-LIFE-ORPHAN": (  # the ping-back detaches without _spawn's handle
        "discovery/protocol.py",
        [
            (
                "            self._spawn(self.ping_addr(addr, sender_id))\n",
                "            asyncio.ensure_future(self.ping_addr(addr, sender_id))\n",
            )
        ],
    ),
    "OWNERSHIP": (  # a bootstrap watch armed on CrawlStats, past the writer
        "nodefinder/scanner.py",
        [
            (
                "        self.writer.watch_bootstrap(node_id)\n",
                "        self.stats.watch_bootstrap(node_id)\n",
            )
        ],
    ),
    "OBS-CLOCK": (  # an emitted event stamped off the wall clock
        "telemetry/hub.py",
        [
            (
                "        event = Event(type=event_type, ts=self.clock(), fields=clean)\n",
                "        event = Event(type=event_type, ts=time.time(), fields=clean)\n",
            )
        ],
    ),
    "RETRY-SAFE": (  # a frame header read loses its own deadline
        "rlpx/session.py",
        [
            (
                "        header = await asyncio.wait_for(\n"
                "            self._reader.readexactly(HEADER_LEN + MAC_LEN), FRAME_READ_TIMEOUT\n"
                "        )\n",
                "        header = await self._reader.readexactly(HEADER_LEN + MAC_LEN)\n",
            )
        ],
    ),
}


def write_mutant(src: Path, path: str, edits, dest: Path) -> Path:
    """Copy ``src/repro/<path>`` to ``dest/repro/<path>`` with ``edits``
    applied (so the same lint scopes apply); each anchor must occur once."""
    text = (src / "repro" / path).read_text(encoding="utf-8")
    for old, new in edits:
        if text.count(old) != 1:
            raise ValueError(f"{path}: the anchor is not there exactly once: {old!r}")
        text = text.replace(old, new)
    target = dest / "repro" / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target
