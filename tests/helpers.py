"""Shared test helpers."""

from collections import Counter

from repro.nodefinder.reshard import DynamicShardPlan
from repro.telemetry import read_events


def plant_static(finder, target, next_dial):
    """Put ``target`` on ``finder``'s StaticNodes with the given next-dial
    time, overwriting any schedule it has (works on both drivers: the
    StaticNodes dict and the address book live in ``finder.core``)."""
    core = finder.core
    core.addresses[target.node_id] = target
    core.statics[target.node_id] = next_dial


def assert_every_record_is_placed(journal_paths):
    """One crawl's journal files obey the one placement rule, every record
    type alike: ``crawler`` first in every file and nowhere else;
    ``reshard`` last, in sealed parents only; a record naming a node in
    the file whose range owns that prefix; a node-less record in the
    first live segment (the range starting at prefix 0).  The ranges are
    rebuilt from the files alone — the generation-0 count and the
    ``reshard`` records.  Returns the record count by type."""
    events = {}
    for path in journal_paths:
        _, shard, segment = path.name[: -len(".jsonl")].partition("-shard")
        events[segment if shard else "0.g0"] = read_events(path)
    plan = DynamicShardPlan(sum(segment.endswith(".g0") for segment in events))
    ranges = {shard_range.segment: shard_range for shard_range in plan.ranges}
    handoffs = {}  # generation -> (action, lowest parent lo)
    for segment_events in events.values():
        last = segment_events[-1].fields
        if segment_events[-1].type == "reshard":
            action, lo = handoffs.get(last["generation"], (last["action"], last["parent"][0]))
            handoffs[last["generation"]] = (action, min(lo, last["parent"][0]))
    for generation in sorted(handoffs):
        action, lo = handoffs[generation]
        getattr(plan, action)([r.lo for r in plan.ranges].index(lo))
        ranges.update({shard_range.segment: shard_range for shard_range in plan.ranges})
    live = {shard_range.segment for shard_range in plan.ranges}
    assert set(events) == set(ranges)

    seen = Counter()
    for segment, segment_events in events.items():
        owned = ranges[segment]
        assert segment_events[0].type == "crawler", segment
        assert (segment_events[-1].type == "reshard") == (segment not in live), segment
        for position, event in enumerate(segment_events):
            seen[event.type] += 1
            node_id = event.fields.get("node_id")
            if event.type == "crawler":
                assert position == 0, (segment, position)
            elif event.type == "reshard":
                assert position == len(segment_events) - 1, (segment, position)
                assert event.fields["parent"] == [owned.lo, owned.hi]
            elif node_id is not None:
                assert owned.lo <= int(node_id[:4], 16) < owned.hi, (segment, event)
            else:
                assert owned.lo == 0, (segment, event)
    return seen
