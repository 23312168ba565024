"""The §4 policy (``repro.nodefinder.core``) and the two drivers that ask it.

* a regression test: a refused dial never joins StaticNodes in the simnet
  (it did, and was then re-dialed every 30 minutes);
* a sim <-> live differential: one scripted peer set driven through
  ``NodeFinderInstance`` (a scripted world on a real ``WheelClock``) and
  through ``LiveNodeFinder`` (fake clock, stub harvester, patched
  ``discovery.lookup_all``).  The journals cannot be byte-equal — the simnet
  sweeps StaticNodes on a 30-minute tick, the live dial loop polls — so the
  test asserts what the policy determines and the cadence does not;
  Both drivers run on a NodeDB that raises on every read: the policy
  decides from the core alone, and the NodeDB is only written;
* §4's 24 h rule over two simulated days, checked after every hourly
  prune against the NodeDB the rule used to be read from;
* a Hypothesis model of the bare ``CrawlerCore`` against one dict.
"""

import asyncio
import io
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.discovery.enode import ENode
from repro.nodefinder import live as live_module
from repro.nodefinder import scanner
from repro.nodefinder.core import CrawlerCore
from repro.nodefinder.database import NodeDB
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.live import LiveConfig, LiveNodeFinder
from repro.nodefinder.scanner import NodeFinderConfig, NodeFinderInstance
from repro.resilience import PeerScoreboard
from repro.simnet.clock import WheelClock
from repro.simnet.geo import GeoModel
from repro.nodefinder.records import DialOutcome, DialResult
from repro.simnet.node import NodeAddress
from repro.simnet.population import PopulationConfig
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import EventJournal, read_events
from repro.units import SECONDS_PER_DAY

from tests.helpers import plant_success

# -- the scripted peer set ---------------------------------------------------

#: outcome of a peer's n-th dial (1-based), by the kind of peer it is
SCRIPTS = {
    "good": lambda attempt: DialOutcome.FULL_HARVEST,
    "dead": lambda attempt: DialOutcome.TIMEOUT,
    "late": lambda attempt: (
        DialOutcome.TIMEOUT if attempt == 1 else DialOutcome.FULL_HARVEST
    ),
    "refused": lambda attempt: DialOutcome.CONNECTION_REFUSED,
    "rude": lambda attempt: DialOutcome.HELLO_THEN_DISCONNECT,
}
KINDS = list(SCRIPTS)


def _peer(index: int) -> NodeAddress:
    # first byte walks the four quarters of the prefix space
    prefix = (0x10, 0x50, 0x90, 0xD0)[index % 4]
    return NodeAddress(bytes([prefix, index]) * 32, f"10.0.{index}.1", 30303, 30303)


#: 24 peers over four prefix ranges; 4 and 5 are coprime, so every range
#: holds every kind
PEERS = {_peer(index): KINDS[index % 5] for index in range(24)}
KIND_OF = {address.node_id: kind for address, kind in PEERS.items()}
#: the simnet's way in: a bootstrap node that answers FIND_NODE and is not
#: itself a scripted peer (bootstrap nodes are static from the start, §4)
DIRECTORY = NodeAddress(b"\x77\xff" * 32, "10.1.0.1", 30303, 30303)


def _result(target, outcome: DialOutcome, now: float, connection_type="dynamic-dial"):
    return DialResult(
        timestamp=now,
        node_id=target.node_id,
        ip=target.ip,
        tcp_port=target.tcp_port,
        connection_type=connection_type,
        outcome=outcome,
    )


class WriteOnlyNodeDB(NodeDB):
    """A NodeDB the crawl may fold into but not read: every read raises
    until a test opens it to check the crawl's output."""

    readable = False

    def _read(self) -> None:
        if not self.readable:
            raise AssertionError("the crawl policy read its NodeDB")

    def __len__(self):
        self._read()
        return super().__len__()

    def __contains__(self, node_id):
        self._read()
        return super().__contains__(node_id)

    def __iter__(self):
        self._read()
        return super().__iter__()

    def get(self, node_id):
        self._read()
        return super().get(node_id)


@pytest.fixture
def write_only_db(monkeypatch):
    """Both drivers build their NodeDB as a :class:`WriteOnlyNodeDB`."""
    monkeypatch.setattr(scanner, "NodeDB", WriteOnlyNodeDB)
    monkeypatch.setattr(live_module, "NodeDB", WriteOnlyNodeDB)


class Dialer:
    """Scripted outcomes by per-peer attempt number (both drivers' dial stub)."""

    def __init__(self) -> None:
        self.attempts: Counter = Counter()

    def result(self, target, connection_type: str, now: float) -> DialResult:
        self.attempts[target.node_id] += 1
        script = SCRIPTS[KIND_OF.get(target.node_id, "good")]
        return _result(target, script(self.attempts[target.node_id]), now, connection_type)


class ScriptedWorld:
    """The slice of ``SimWorld`` a ``NodeFinderInstance`` touches.

    Every FIND_NODE answer is the whole peer set plus the asker itself;
    every dial follows the peer's script.  Nothing ever dials in.
    """

    def __init__(self, peers) -> None:
        self.clock = WheelClock()
        self.geo = GeoModel(random.Random(0))
        self.peers = list(peers)
        self.dialer = Dialer()
        self.listener = None

    @property
    def now(self) -> float:
        return self.clock.now

    def bootstrap_addresses(self):
        return [DIRECTORY]

    def register_listener(self, listener) -> None:
        self.listener = listener

    def find_node_query(self, address, target):
        return self.peers + [
            NodeAddress(self.listener.node_id, self.listener.location.ip, 30303, 30303)
        ]

    def dial(self, address, connection_type, from_location):
        return self.dialer.result(address, connection_type, self.now)


class Journals:
    """In-memory per-shard journals (a ``journal_opener``)."""

    def __init__(self) -> None:
        self.streams: dict[str, io.StringIO] = {}

    def __call__(self, shard: str) -> EventJournal:
        self.streams[shard] = io.StringIO()
        return EventJournal(self.streams[shard])

    def dials(self):
        """``(shard index, node id, connection type, outcome, dialed at)``
        for every dial event, in journal order per shard."""
        for shard, stream in self.streams.items():
            for event in read_events(stream.getvalue().splitlines()):
                if event.type == "dial":
                    fields = event.fields
                    yield (
                        int(shard),
                        bytes.fromhex(fields["node_id"]),
                        fields["connection_type"],
                        fields["outcome"],
                        fields["started"],
                    )


def run_sim(peers, shards: int, seconds: float):
    world = ScriptedWorld(peers)
    journals = Journals()
    finder = NodeFinderInstance(
        world,
        NodeFinderConfig(seed=1, shards=shards),
        journal_opener=journals,
    )
    finder.start()
    world.clock.run_until(seconds)
    return finder, journals


#: live clock units: exact binary fractions, so ``now + interval`` is exact
LIVE_INTERVAL = 1 / 16
LIVE_STEP = LIVE_INTERVAL / 4


async def run_live(peers, intervals: int):
    """Drive a live crawl whose fake clock advances one step per lookup —
    and only once every dial the policy has already decided on has been
    made, so a dial's timestamp is the ``now`` the core decided it at."""
    now = [0.0]
    journals = Journals()
    dialer = Dialer()
    dialed_at: set[tuple[bytes, float]] = set()

    async def harvester(target, key, connection_type="dynamic-dial", **kwargs):
        result = dialer.result(target, connection_type, kwargs["clock"]())
        dialed_at.add((target.node_id, result.timestamp))
        kwargs["telemetry"].record_dial(result)
        return result

    finder = LiveNodeFinder(
        config=LiveConfig(
            lookup_interval=0.004,
            static_dial_interval=LIVE_INTERVAL,
            max_active_dials=64,
        ),
        clock=lambda: now[0],
        harvester=harvester,
        journal_opener=journals,
    )
    finder.core.gate = None  # the simnet side runs undefended
    await finder.start(bootstrap=[])
    found = [ENode(*address) for address in peers]
    found.append(ENode(finder.discovery.node_id, "127.0.0.1", 1, 1))
    finished = asyncio.Event()

    def settled() -> bool:
        owed = [n for n, at in finder.core.dial_history.items() if at == now[0]]
        owed += [
            n for n, at in finder.static_nodes.items() if at == now[0] + LIVE_INTERVAL
        ]
        return all((node_id, now[0]) in dialed_at for node_id in owed)

    async def lookup(_target):
        while not settled():
            await asyncio.sleep(0.001)
        if now[0] >= intervals * LIVE_INTERVAL:
            finished.set()
            return []
        now[0] += LIVE_STEP
        return found

    finder.discovery.lookup_all = lookup
    try:
        await asyncio.wait_for(finished.wait(), timeout=30.0)
    finally:
        await asyncio.wait_for(finder.stop(), timeout=10.0)
    return finder, journals


def sequences(journals: Journals):
    """node id -> its dials in time order: (type, outcome, dialed at)."""
    by_peer = defaultdict(list)
    for _, node_id, connection_type, outcome, at in journals.dials():
        by_peer[node_id].append((connection_type, outcome, at))
    for dials in by_peer.values():
        dials.sort(key=lambda dial: dial[2])
    return by_peer


def assert_spacing(sequence, connection_type: str, at_least: float) -> None:
    times = [at for kind, _, at in sequence if kind == connection_type]
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= at_least, (connection_type, earlier, later)


# -- regression: a refused dial joins nothing --------------------------------


def test_refused_dial_never_joins_static_nodes_and_is_redialed():
    """§4: only a *completed* dial joins StaticNodes.  A refused one is not
    re-dialed every 30 minutes; it is dynamic-dialed again once the dial
    history has expired (regression: the simnet joined on every outcome
    but TIMEOUT, so a refused peer was static-dialed ever after)."""
    refused = next(address for address, kind in PEERS.items() if kind == "refused")
    good = next(address for address, kind in PEERS.items() if kind == "good")
    finder, journals = run_sim([refused, good], shards=1, seconds=4 * 1800.0 + 60)
    window = scanner.DIAL_HISTORY_EXPIRATION

    assert refused.node_id not in finder.static_nodes
    assert good.node_id in finder.static_nodes
    dials = sequences(journals)
    assert {(kind, outcome) for kind, outcome, _ in dials[refused.node_id]} == {
        ("dynamic-dial", "refused")
    }
    assert len(dials[refused.node_id]) >= 3
    assert_spacing(dials[refused.node_id], "dynamic-dial", window)
    assert [kind for kind, _, _ in dials[good.node_id]][:2] == [
        "dynamic-dial",
        "static-dial",
    ]


# -- sim <-> live differential ---------------------------------------------------


@pytest.mark.parametrize("shards", [1, 4])
def test_sim_and_live_drivers_apply_one_policy(shards, write_only_db):
    intervals = 8
    sim, sim_journals = run_sim(PEERS, shards, intervals * 1800.0 + 60)
    live, live_journals = asyncio.run(run_live(PEERS, intervals))
    sim_dials, live_dials = sequences(sim_journals), sequences(live_journals)

    for node_id, kind in KIND_OF.items():
        sim_sequence = [dial[:2] for dial in sim_dials[node_id]]
        live_sequence = [dial[:2] for dial in live_dials[node_id]]
        # the same dials in the same order, for as long as both ran
        common = min(len(sim_sequence), len(live_sequence))
        assert common >= 3, (kind, sim_sequence, live_sequence)
        assert sim_sequence[:common] == live_sequence[:common], kind

    # StaticNodes: exactly the peers with a completed dial, on both drivers
    # (plus, in the simnet, the bootstrap node it started from)
    completed = {
        node_id for node_id, kind in KIND_OF.items() if kind in ("good", "late", "rude")
    }
    assert set(live.static_nodes) == completed
    assert set(sim.static_nodes) == completed | {DIRECTORY.node_id}

    # no dynamic re-dial inside the history window, no static re-dial
    # inside the interval — each on the driver's own clock
    for dials, window, interval in (
        (sim_dials, scanner.DIAL_HISTORY_EXPIRATION, sim.config.static_dial_interval),
        (live_dials, LIVE_INTERVAL, LIVE_INTERVAL),
    ):
        for node_id in KIND_OF:
            assert_spacing(dials[node_id], "dynamic-dial", window)
            assert_spacing(dials[node_id], "static-dial", interval)

    # every sim dial is journaled in the file of the shard owning the
    # target; the live crawl journals to one file
    assert sim.plan.shards == shards
    for shard, node_id, _, _, _ in sim_journals.dials():
        assert sim.plan.shard_of(node_id) == shard
    assert {shard for shard, *_ in live_journals.dials()} == {0}


def test_sim_crawl_prunes_by_the_24h_rule_alone(write_only_db, monkeypatch):
    """§4: an hourly prune drops exactly the statics whose last successful
    connection — outbound or inbound — is over a day old.  Checked after
    every prune of a two-day crawl against the NodeDB, which the crawl
    itself never reads."""
    dropped_in_all = []
    prune = NodeFinderInstance._prune_stale

    def checked_prune(finder):
        before = set(finder.static_nodes)
        prune(finder)
        now, db = finder.world.now, finder.db
        dropped = before - set(finder.static_nodes)
        db.readable = True
        try:
            for node_id in finder.static_nodes:
                entry = db.get(node_id)
                if entry is not None and entry.last_success >= 0:
                    assert now - entry.last_success <= SECONDS_PER_DAY
            for node_id in dropped:
                entry = db.get(node_id)
                assert entry is not None and entry.last_success >= 0
                assert now - entry.last_success > SECONDS_PER_DAY
        finally:
            db.readable = False
        dropped_in_all.extend(dropped)

    monkeypatch.setattr(NodeFinderInstance, "_prune_stale", checked_prune)
    population = PopulationConfig(total_nodes=120, measurement_days=2.1, seed=2018)
    fleet = run_fleet(
        SimWorld(WorldConfig(population=population, seed=7)),
        instance_count=1,
        days=2.1,
        config=NodeFinderConfig(seed=1, shards=2, discovery_interval=60.0),
    )
    [finder] = fleet.instances
    assert dropped_in_all
    # the core's memory is the number the NodeDB folds to
    finder.db.readable = True
    assert finder.core.last_success == {
        entry.node_id: entry.last_success for entry in finder.db if entry.last_success >= 0
    }


# -- the bare core -------------------------------------------------------------


def test_breaker_gate_scores_failures_and_prune_forgets():
    now = [0.0]
    board = PeerScoreboard(failure_threshold=2, cooldown=600.0, clock=lambda: now[0])
    core = CrawlerCore(1800.0, 1800.0, board)
    peer = _peer(3)
    for _ in range(2):
        assert core.admit(peer)
        core.dial_done(peer, _result(peer, DialOutcome.CONNECTION_REFUSED, now[0]), now[0])
    assert not core.admit(peer)
    assert core.statics == {}
    # its last success is over a day old, but a peer that is not on
    # StaticNodes keeps its breaker through a prune
    plant_success(core, peer.node_id, now[0] - SECONDS_PER_DAY - 1)
    core.prune(now[0])
    assert not core.admit(peer)
    core.add_static(peer.node_id, 0.0)
    core.prune(now[0])
    assert core.statics == {}
    assert core.admit(peer) and len(board) == 1  # a fresh breaker


def test_prune_keeps_statics_that_never_connected_or_connected_within_a_day():
    core = CrawlerCore(1800.0, 1800.0)
    silent, fresh, inbound, stale = (_peer(index) for index in range(4))
    core.add_static(silent.node_id, 0.0)  # a bootstrap node that never answered
    core.dial_done(fresh, _result(fresh, DialOutcome.FULL_HARVEST, 0.0), 0.0)
    core.dial_done(stale, _result(stale, DialOutcome.FULL_HARVEST, 0.0), 0.0)
    # an inbound connection is a success too, and refreshes it
    assert core.inbound(_result(inbound, DialOutcome.HELLO_NO_STATUS, 0.0, "incoming"), 0.0)
    assert not core.inbound(
        _result(fresh, DialOutcome.RLPX_FAILED, 3600.0, "incoming"), 3600.0
    )
    # a refused inbound attempt is not one
    assert not core.inbound(
        _result(stale, DialOutcome.CONNECTION_REFUSED, 3600.0, "incoming"), 3600.0
    )
    core.prune(SECONDS_PER_DAY)  # exactly a day: nothing is older than that
    assert len(core.statics) == 4
    core.prune(SECONDS_PER_DAY + 1800.0)
    assert list(core.statics) == [silent.node_id, fresh.node_id]
    assert core.last_success == {
        fresh.node_id: 3600.0, stale.node_id: 0.0, inbound.node_id: 0.0
    }


#: the model's universe: prefixes spread over the whole keyspace
UNIVERSE = [
    NodeAddress(bytes([(index * 37) % 256, index]) * 32, f"10.2.0.{index}", 30303, 30303)
    for index in range(40)
]
OWN_ID = b"\x00\x01" * 32
INTERVAL, WINDOW = 30.0, 20.0

targets = st.sampled_from(UNIVERSE)
OUTCOMES = st.sampled_from(list(DialOutcome))


class CrawlerCoreModel(RuleBasedStateMachine):
    """``CrawlerCore`` against one dict."""

    def __init__(self):
        super().__init__()
        self.core = CrawlerCore(INTERVAL, WINDOW)
        self.now = 0.0
        self.statics: dict[bytes, float] = {}
        self.history: dict[bytes, float] = {}
        self.last_success: dict[bytes, float] = {}

    @rule(seconds=st.floats(min_value=0.0, max_value=45.0))
    def advance(self, seconds):
        self.now += seconds

    @rule(days=st.floats(min_value=0.0, max_value=1.5))
    def advance_days(self, days):
        self.now += days * SECONDS_PER_DAY

    def _connected(self, peer, outcome):
        if outcome.connected:  # the clock only moves forward: latest = now
            self.last_success[peer.node_id] = self.now

    @rule(
        found=st.lists(targets, unique=True, max_size=12),
        own=st.booleans(),
        budget=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    )
    def select(self, found, own, budget):
        if own:
            found = found + [NodeAddress(OWN_ID, "10.2.1.1", 30303, 30303)]
        eligible = [
            target
            for target in found
            if target.node_id != OWN_ID
            and target.node_id not in self.statics
            and not self.history.get(target.node_id, -1e18) > self.now - WINDOW
        ]
        taken = eligible if budget is None else eligible[:budget]
        self.core.budget = budget
        selected, shed = self.core.select(found, OWN_ID, self.now)
        assert shed == len(eligible) - len(taken)
        # lookup order kept
        assert selected == taken
        for target in taken:
            self.history[target.node_id] = self.now
        # a shed target stayed out of the history
        assert self.core.dial_history == self.history

    @rule()
    def due_statics(self):
        # the model's order is the order nodes joined
        due = [n for n, next_dial in self.statics.items() if next_dial <= self.now]
        expected = []
        for node_id in due:
            if node_id in self.core.addresses:
                self.statics[node_id] = self.now + INTERVAL
                expected.append(node_id)
            else:
                del self.statics[node_id]
        returned = self.core.due_statics(self.now)
        assert [target.node_id for target in returned] == expected

    @rule(peer=targets, outcome=OUTCOMES)
    def dial_done(self, peer, outcome):
        self.core.dial_done(peer, _result(peer, outcome, self.now), self.now)
        self._connected(peer, outcome)
        if outcome.completed:
            self.statics.setdefault(peer.node_id, self.now + INTERVAL)
            assert self.core.addresses[peer.node_id] == peer

    @rule(peer=targets, delay=st.floats(min_value=0.0, max_value=60.0))
    def add_static(self, peer, delay):
        added = self.core.add_static(peer.node_id, self.now + delay)
        assert added == (peer.node_id not in self.statics)
        self.statics.setdefault(peer.node_id, self.now + delay)

    @rule(peer=targets, outcome=OUTCOMES)
    def inbound(self, peer, outcome):
        added = self.core.inbound(_result(peer, outcome, self.now, "incoming"), self.now)
        assert added == (peer.node_id not in self.statics)
        self.statics.setdefault(peer.node_id, self.now + INTERVAL)
        self._connected(peer, outcome)

    @rule()
    def prune(self):
        self.core.prune(self.now)
        for node_id in list(self.statics):
            last = self.last_success.get(node_id)
            if last is not None and self.now - last > SECONDS_PER_DAY:
                del self.statics[node_id]

    @invariant()
    def statics_are_the_model_in_join_order_with_next_dial_times_kept(self):
        assert list(self.core.statics.items()) == list(self.statics.items())

    @invariant()
    def last_success_is_the_latest_connected_result(self):
        assert self.core.last_success == self.last_success


CrawlerCoreModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestCrawlerCoreModel = CrawlerCoreModel.TestCase
