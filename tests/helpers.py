"""Shared test helpers."""


def plant_static(finder, target, next_dial):
    """Put ``target`` on ``finder``'s StaticNodes with the given next-dial
    time, overwriting any schedule it has (works on both drivers: the
    StaticNodes dicts and the address book live in ``finder.core``)."""
    core = finder.core
    core.addresses[target.node_id] = target
    core.add_static(target.node_id, next_dial)
    core.statics[core.plan.shard_of(target.node_id)][target.node_id] = next_dial
