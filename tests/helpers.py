"""Shared test helpers."""

from collections import Counter

from repro.nodefinder.shard import ShardPlan
from repro.telemetry import read_events


def plant_static(finder, target, next_dial):
    """Put ``target`` on ``finder``'s StaticNodes with the given next-dial
    time, overwriting any schedule it has (works on both drivers: the
    StaticNodes dict and the address book live in ``finder.core``)."""
    core = finder.core
    core.addresses[target.node_id] = target
    core.statics[target.node_id] = next_dial


def plant_success(core, node_id, at):
    """Record a successful connection to ``node_id`` at time ``at`` in
    ``core`` — what a connected dial or inbound connection would leave for
    §4's 24 h prune to read."""
    core.last_success[node_id] = at


def assert_every_record_is_placed(journal_paths):
    """One crawl's journal files obey the one placement rule, every record
    type alike: ``crawler`` first in every file and nowhere else; a record
    naming a node in the file of the shard owning that prefix; a node-less
    record in shard 0's file.  The plan is rebuilt from the files alone —
    one file per shard, ``<stem>-shard<k>.jsonl`` (or a plain
    ``<stem>.jsonl`` for one shard).  Returns the record count by type."""
    events = {}
    for path in journal_paths:
        _, shard, index = path.name[: -len(".jsonl")].partition("-shard")
        events[int(index) if shard else 0] = read_events(path)
    plan = ShardPlan(len(events))
    assert set(events) == set(range(plan.shards))

    seen = Counter()
    for shard, shard_events in events.items():
        assert shard_events[0].type == "crawler", shard
        for position, event in enumerate(shard_events):
            seen[event.type] += 1
            node_id = event.fields.get("node_id")
            if event.type == "crawler":
                assert position == 0, (shard, position)
            elif node_id is not None:
                assert plan.shard_of(bytes.fromhex(node_id)) == shard, (shard, event)
            else:
                assert shard == 0, (shard, event)
    return seen
