"""Eclipse-attack experiments on the RLPx routing table (§6.3, §9).

Two related phenomena around table monopolisation:

* **Marcus et al.'s table-flush eclipse** (related work §9): Geth flushes
  its routing table on reboot; an attacker who owns many node IDs and
  floods the victim right after restart captures its buckets and therefore
  its FIND_NODE world-view.
* **the accidental eclipse of §6.3**: a Geth node whose table saturates
  with Parity peers receives NEIGHBORS answers that never converge,
  starving discovery without any attacker.

``simulate_table_takeover`` measures both: the attacker share of table
entries and of lookup answers, with and without pre-existing honest
entries (Kademlia's old-node-favouring eviction is the defence — a full,
healthy table largely resists the flood; a freshly flushed one does not).

:func:`detect_eclipse` is the forensic counterpart: given a *replayed
journal* (no ground truth about who the attacker is), it scores the
observable fingerprints a Sybil/eclipse campaign leaves behind — IP-
prefix concentration, near-bucket occupancy skew, dial-traffic share of
the dominant prefix, and the defences' own admission/breaker evidence —
and raises a deterministic alarm.  Pure computation over the replayed
view (the INGEST-PURE lint family applies).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.crypto.keccak import keccak256
from repro.discovery import distance as dist
from repro.discovery.enode import ENode, cached_id_hash
from repro.discovery.routing import RoutingTable
from repro.resilience.breaker import subnet_of


@dataclass
class EclipseReport:
    """Takeover metrics for one scenario."""

    honest_nodes: int
    attacker_ids: int
    flushed_table: bool
    table_share: float = 0.0      # attacker fraction of table entries
    lookup_share: float = 0.0     # attacker fraction of lookup answers
    eclipsed_lookups: float = 0.0  # lookups whose answers are 100% attacker


def _node(rng: random.Random, ip: str | None = None) -> ENode:
    return ENode(
        node_id=rng.randbytes(64),
        ip=ip or f"10.{rng.randrange(255)}.{rng.randrange(255)}.{rng.randrange(1, 255)}",
        udp_port=30303,
        tcp_port=30303,
    )


def simulate_table_takeover(
    honest_nodes: int = 300,
    attacker_ids: int = 2000,
    flushed_table: bool = True,
    attacker_ips: int = 2,
    lookups: int = 100,
    bucket_size: int = 16,
    seed: int = 21,
) -> EclipseReport:
    """Flood a victim's table with attacker identities.

    ``flushed_table=False`` models a long-running victim: honest entries
    arrive first and, per Kademlia's eviction policy, keep their slots when
    the flood arrives.  ``flushed_table=True`` models the post-reboot
    window Marcus et al. exploit: the attacker inserts first.
    """
    rng = random.Random(seed)
    victim_id = rng.randbytes(64)
    table = RoutingTable.for_node_id(victim_id, bucket_size=bucket_size)
    honest = [_node(rng) for _ in range(honest_nodes)]
    attacker_ip_pool = [f"66.6.{i}.6" for i in range(max(attacker_ips, 1))]
    attackers = [
        _node(rng, ip=rng.choice(attacker_ip_pool)) for _ in range(attacker_ids)
    ]
    attacker_id_set = {node.node_id for node in attackers}

    first, second = (attackers, honest) if flushed_table else (honest, attackers)
    for node in first:
        table.add(node)  # full buckets simply cache the newcomers
    for node in second:
        table.add(node)
    # liveness checks: old entries answer pings, so eviction candidates stay
    # (we emulate by never calling evict) — the Kademlia defence in action

    entries = list(table)
    report = EclipseReport(
        honest_nodes=honest_nodes,
        attacker_ids=attacker_ids,
        flushed_table=flushed_table,
    )
    if entries:
        report.table_share = sum(
            1 for node in entries if node.node_id in attacker_id_set
        ) / len(entries)
    attacker_answers = 0
    total_answers = 0
    fully_eclipsed = 0
    for _ in range(lookups):
        target = keccak256(rng.randbytes(64))
        answer = table.closest_to(target, count=16)
        if not answer:
            continue
        hits = sum(1 for node in answer if node.node_id in attacker_id_set)
        attacker_answers += hits
        total_answers += len(answer)
        if hits == len(answer):
            fully_eclipsed += 1
    report.lookup_share = attacker_answers / max(total_answers, 1)
    report.eclipsed_lookups = fully_eclipsed / max(lookups, 1)
    return report


def takeover_comparison(**kwargs) -> tuple[EclipseReport, EclipseReport]:
    """(flushed, established) — the before/after-reboot contrast."""
    flushed = simulate_table_takeover(flushed_table=True, **kwargs)
    established = simulate_table_takeover(flushed_table=False, **kwargs)
    return flushed, established


# -- forensic detection over a replayed journal ------------------------------


@dataclass
class EclipseDetection:
    """Eclipse fingerprints scored from one replayed crawl journal."""

    #: distinct peers observed (crawler identities excluded)
    observed_nodes: int = 0
    #: (prefix, distinct node IDs, share of observed nodes), densest first
    top_subnets: Tuple[Tuple[str, int, float], ...] = ()
    top_subnet_share: float = 0.0
    #: dial attempts aimed at the densest prefix / all dial attempts —
    #: the share of the crawl's attention the campaign captured
    hostile_dial_share: float = 0.0
    #: occupancy of the victim's near buckets (log distance <= threshold)
    near_bucket_threshold: int = 252
    near_bucket_share: float = 0.0
    #: natural near-bucket probability: sum of 2^(d-257) for d <= threshold
    expected_near_share: float = 0.0
    #: near_bucket_share / expected_near_share (1.0 = unremarkable);
    #: node-ID grinding shows up here
    bucket_skew: float = 0.0
    #: defence evidence replayed from the journal (schema v3 events)
    admission_rejections: Dict[str, int] = field(default_factory=dict)
    rejected_subnets: Tuple[Tuple[str, int], ...] = ()
    subnet_breaker_trips: int = 0
    #: alarm verdict plus which signals fired, deterministic order
    alarm: bool = False
    triggers: Tuple[str, ...] = ()

    @property
    def total_admission_rejections(self) -> int:
        return sum(self.admission_rejections.values())


def detect_eclipse(
    replayed,
    subnet_share_alarm: float = 0.15,
    bucket_skew_alarm: float = 3.0,
    near_bucket_threshold: int = 252,
    prefix_bits: int = 24,
    top: int = 5,
    min_population: int = 8,
) -> EclipseDetection:
    """Score eclipse fingerprints in a replayed crawl (journal forensics).

    ``replayed`` is a :class:`~repro.analysis.ingest.ReplayedCrawl`.  The
    detector has no attacker ground truth; it alarms on what a campaign
    cannot help leaving in the measurement log:

    * **prefix concentration** — distinct node IDs per /24: a Sybil swarm
      minted from one allocation owns an implausible share of the
      observed population (honest populations spread across thousands of
      prefixes, cf. the paper's Table 5 geography);
    * **near-bucket skew** — the fraction of observed IDs whose Geth log
      distance from the crawler's own identity is <= ``threshold``
      against the natural ``2^(d-257)`` density: ground IDs aimed at a
      victim's near buckets multiply that share (needs the v3 ``crawler``
      journal record to know the victim identity);
    * **hostile dial share** — how much of the dial schedule the densest
      prefix captured (amplification and false-friend steering both pull
      this up);
    * **defence evidence** — replayed ``table_admission`` rejections and
      subnet-breaker trips are direct coordination proof.

    The statistical triggers (concentration, skew) only fire over at
    least ``min_population`` observed peers — a failed-dials-only
    journal with one phantom peer is "100% concentrated" but means
    nothing; defence-evidence triggers have no floor.
    """
    detection = EclipseDetection(near_bucket_threshold=near_bucket_threshold)
    crawler_ids = set(replayed.crawler_ids)

    # prefix concentration over the replayed node database
    subnet_nodes: Dict[str, set] = {}
    observed: list = []
    for entry in replayed.db:
        if entry.node_id in crawler_ids:
            continue
        observed.append(entry.node_id)
        for ip in entry.ips:
            subnet = subnet_of(ip, prefix_bits)
            if subnet is not None:
                subnet_nodes.setdefault(subnet, set()).add(entry.node_id)
    detection.observed_nodes = len(observed)
    ranked = sorted(
        subnet_nodes.items(), key=lambda item: (-len(item[1]), item[0])
    )
    if observed and ranked:
        detection.top_subnets = tuple(
            (subnet, len(ids), len(ids) / len(observed))
            for subnet, ids in ranked[:top]
        )
        detection.top_subnet_share = detection.top_subnets[0][2]

        densest = subnet_nodes[ranked[0][0]]
        total_dials = hostile_dials = 0
        for timeline in replayed.timelines.values():
            total_dials += timeline.dials
            if timeline.node_id in densest:
                hostile_dials += timeline.dials
        if total_dials:
            detection.hostile_dial_share = hostile_dials / total_dials

    # near-bucket occupancy vs the 2^(d-257) law, worst crawler identity
    detection.expected_near_share = sum(
        2.0 ** (d - 257) for d in range(0, near_bucket_threshold + 1)
    )
    if observed and crawler_ids:
        for crawler_id in sorted(crawler_ids):
            own_hash = keccak256(crawler_id)
            near = sum(
                1
                for node_id in observed
                if dist.geth_log_distance(own_hash, cached_id_hash(node_id))
                <= near_bucket_threshold
            )
            share = near / len(observed)
            if share > detection.near_bucket_share:
                detection.near_bucket_share = share
        detection.bucket_skew = (
            detection.near_bucket_share / detection.expected_near_share
        )

    # defence evidence straight from the v3 journal records
    detection.admission_rejections = dict(
        sorted(replayed.admission_rejections.items())
    )
    detection.rejected_subnets = tuple(
        sorted(
            replayed.rejected_subnets.items(),
            key=lambda item: (-item[1], item[0]),
        )[:top]
    )
    detection.subnet_breaker_trips = sum(replayed.subnet_breaker_trips.values())

    # concentration ratios over a handful of peers are noise (one node in
    # one /24 is "100% concentration"); the statistical triggers need a
    # minimum population, while defence evidence stays direct proof
    population_scored = detection.observed_nodes >= min_population
    triggers = []
    if population_scored and detection.top_subnet_share >= subnet_share_alarm:
        triggers.append(
            f"prefix-concentration: {detection.top_subnet_share:.1%} of "
            f"observed nodes in one /{prefix_bits}"
        )
    if population_scored and detection.bucket_skew >= bucket_skew_alarm:
        triggers.append(
            f"near-bucket skew: {detection.bucket_skew:.1f}x natural density "
            f"at distance <= {near_bucket_threshold}"
        )
    if detection.total_admission_rejections > 0:
        triggers.append(
            f"table admission refused {detection.total_admission_rejections} "
            f"inserts"
        )
    if detection.subnet_breaker_trips > 0:
        triggers.append(
            f"subnet breakers tripped {detection.subnet_breaker_trips} times"
        )
    detection.triggers = tuple(triggers)
    detection.alarm = bool(triggers)
    return detection
