"""Running many NodeFinder instances and merging their view (§5: 30 ran).

With ``telemetry_dir`` set, :func:`run_fleet` instruments every instance
with its own :class:`~repro.telemetry.Telemetry` on the shared world
clock, writes its measurement journal through
:class:`~repro.nodefinder.shard.SegmentFiles` — ``<name>.jsonl``, or one
file per shard (``<name>-shard<k>.jsonl``), replayable one by one or
merged via :func:`repro.analysis.ingest.replay_journals`, and
rendered together by ``nodefinder top`` — the multi-instance equivalent
of the paper's combined measurement log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.nodefinder.database import NodeDB
from repro.nodefinder.records import CrawlStats
from repro.nodefinder.scanner import NodeFinderConfig, NodeFinderInstance
from repro.nodefinder.shard import SegmentFiles
from repro.simnet.adversary import AdversaryCampaign
from repro.simnet.world import SimWorld
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.profiler import Profiler


@dataclass
class Fleet:
    """A set of instances plus their merged crawl products."""

    world: SimWorld
    instances: list[NodeFinderInstance]
    #: per-instance journal paths, in instance order (``telemetry_dir`` runs)
    journal_paths: list[Path] = field(default_factory=list)

    @property
    def merged_db(self) -> NodeDB:
        return NodeDB.merged(instance.db for instance in self.instances)

    @property
    def merged_stats(self) -> CrawlStats:
        return CrawlStats.merged(instance.stats for instance in self.instances)

    def own_node_ids(self) -> set[bytes]:
        return {instance.node_id for instance in self.instances}


def run_fleet(
    world: SimWorld,
    instance_count: int = 3,
    days: float = 6.0,
    config: NodeFinderConfig | None = None,
    watch_bootstrap: bool = False,
    telemetry_dir: str | Path | None = None,
    adversary: AdversaryCampaign | None = None,
    profiler: Profiler | None = None,
) -> Fleet:
    """Start ``instance_count`` crawlers and run the world for ``days``.

    All instances start simultaneously, as in the paper's deployment.  With
    ``watch_bootstrap`` every instance tracks dials to the first bootstrap
    node (the Figure 8 experiment).  With ``telemetry_dir`` each instance
    journals to ``<dir>/<name>.jsonl`` — or, when it is sharded, one
    journal per shard (``<dir>/<name>-shard<k>.jsonl``), which
    ``repro.analysis.ingest.replay_journals`` merges back into a single
    timeline and ``nodefinder top`` folds into one health page; every
    file lands in ``journal_paths``.

    With ``adversary`` the campaign is launched against the *first*
    instance's node ID after every instance has minted its identity but
    before any starts crawling — the attacker is in place when the victim
    boots, the worst case of the eclipse literature.  Instance identities
    draw from the builder RNG and start() from the world RNG, so the
    two-phase ordering leaves an adversary-free run bit-identical.

    With ``profiler`` every instance's telemetry shares one hot-path
    profiler and the world clock runs its labelled callbacks under
    profiler scopes, which does not change the crawl itself.
    """
    export_dir = Path(telemetry_dir) if telemetry_dir is not None else None
    bootstrap = world.bootstrap_addresses()
    instances = []
    files: list[SegmentFiles] = []
    if profiler is not None:
        world.clock.profiler = profiler
    for index in range(instance_count):
        name = f"nodefinder-{index}"
        instance_config = config or NodeFinderConfig(seed=index)
        telemetry = NULL_TELEMETRY
        if export_dir is not None or profiler is not None:
            # a journaled or profiled run needs a real facade
            # (NULL_TELEMETRY would drop both); the instance journals
            # through the opener, never through a file of the facade's own
            telemetry = Telemetry(clock=lambda: world.now, profiler=profiler)
        journal_opener = None
        if export_dir is not None:
            journal_opener = SegmentFiles(export_dir, name, instance_config.shards)
            files.append(journal_opener)
        instance = NodeFinderInstance(
            world,
            config=instance_config,
            name=name,
            telemetry=telemetry,
            journal_opener=journal_opener,
        )
        if watch_bootstrap and bootstrap:
            instance.watch_bootstrap(bootstrap[0].node_id)
        instances.append(instance)
    if adversary is not None and instances:
        adversary.launch(world, victim_node_id=instances[0].node_id)
    for instance in instances:
        instance.start(bootstrap)
    fleet = Fleet(world=world, instances=instances)
    try:
        world.run_days(days)
    finally:
        for opened in files:
            opened.close()
            fleet.journal_paths.extend(opened.paths)
    return fleet
