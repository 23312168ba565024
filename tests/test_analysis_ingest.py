"""Tentpole acceptance tests: journal replay reconstructs the live crawl.

Three layers:

* a simulated crawl whose per-instance journal, replayed, matches the
  live ``NodeDB`` entry for entry and the dial-derived ``CrawlStats``
  day for day;
* the CLI acceptance criterion — ``nodefinder analyze --journal`` and
  ``--db`` emit byte-identical reports for the same crawl;
* property tests (Hypothesis) over adversarial event orderings:
  shuffled, duplicated, or truncated journals degrade gracefully
  instead of raising;
* the streamed k-way merge of ``replay_journals`` against the fold of
  the stable-sorted union it replaces, product for product.
"""

from __future__ import annotations

import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ingest import load_nodedb, replay, replay_journal, replay_journals
from repro.cli import main
from repro.nodefinder.fleet import run_fleet
from repro.nodefinder.scanner import NodeFinderConfig
from repro.simnet.population import PopulationConfig
from repro.nodefinder.records import DialOutcome
from repro.simnet.world import SimWorld, WorldConfig
from repro.telemetry import Event, JournalError, read_events

DATA = Path(__file__).parent / "data"

# dial-derived DayCounters attributes (discovery_attempts is scheduler
# bookkeeping with no journal record; everything else folds from dials)
DIAL_DERIVED = (
    "dynamic_dial_attempts",
    "static_dial_attempts",
    "incoming_connections",
    "nodes_dialed",
    "nodes_responded",
    "hellos",
    "statuses",
)


@pytest.fixture(scope="module")
def crawl(tmp_path_factory):
    """One instrumented single-instance simnet crawl."""
    telemetry_dir = tmp_path_factory.mktemp("telemetry")
    world = SimWorld(
        WorldConfig(
            population=PopulationConfig(
                total_nodes=120, measurement_days=2.0, seed=41
            )
        )
    )
    fleet = run_fleet(
        world,
        instance_count=1,
        days=2.0,
        config=NodeFinderConfig(seed=7),
        telemetry_dir=telemetry_dir,
    )
    [journal_path] = fleet.journal_paths
    return fleet, journal_path


class TestSimnetRoundTrip:
    def test_nodedb_matches_entry_for_entry(self, crawl):
        fleet, journal_path = crawl
        [instance] = fleet.instances
        replayed = replay_journal(journal_path)
        assert not replayed.skipped
        assert len(replayed.db) == len(instance.db) > 0
        for entry in instance.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    def test_stats_match_day_for_day(self, crawl):
        fleet, journal_path = crawl
        [instance] = fleet.instances
        replayed = replay_journal(journal_path)
        assert set(replayed.stats.days) == set(instance.stats.days)
        for day, live in instance.stats.days.items():
            mirror = replayed.stats.days[day]
            for attribute in DIAL_DERIVED:
                assert getattr(mirror, attribute) == getattr(live, attribute), (
                    f"day {day}: {attribute}"
                )
            assert dict(mirror.disconnects_received) == dict(
                live.disconnects_received
            )

    def test_timelines_cover_every_dialed_peer(self, crawl):
        fleet, journal_path = crawl
        [instance] = fleet.instances
        replayed = replay_journal(journal_path)
        for entry in instance.db:
            timeline = replayed.timeline(entry.node_id)
            assert timeline is not None
            assert timeline.dials >= 1
            if entry.last_success >= 0:
                assert timeline.first_seen is not None
                assert timeline.first_seen <= timeline.last_seen
                for gap in timeline.sighting_gaps:
                    assert gap >= 0.0
        assert replayed.total_days > 0

    def test_replay_journals_merges_sorted(self, crawl):
        _, journal_path = crawl
        single = replay_journal(journal_path)
        merged = replay_journals([journal_path])
        assert len(merged.db) == len(single.db)
        assert merged.events_replayed == single.events_replayed
        assert load_nodedb(journal_path).get is not None


class TestAnalyzeCliByteIdentical:
    def test_journal_and_db_reports_match(self, crawl, tmp_path, capsys):
        fleet, journal_path = crawl
        [instance] = fleet.instances
        db_path = tmp_path / "nodes.jsonl"
        instance.db.dump_jsonl(str(db_path))

        assert main(["analyze", "--db", str(db_path)]) == 0
        from_db = capsys.readouterr().out
        assert main(["analyze", "--journal", str(journal_path)]) == 0
        from_journal = capsys.readouterr().out

        assert from_journal == from_db
        assert "Table 3" in from_db
        assert "Figure 9" in from_db

    def test_head_height_flag_threads_through(self, crawl, tmp_path, capsys):
        fleet, journal_path = crawl
        assert main(
            ["analyze", "--journal", str(journal_path), "--head-height", "64"]
        ) == 0
        report = capsys.readouterr().out
        assert "freshness" in report.lower()

    def test_rejects_ambiguous_input(self, capsys, tmp_path):
        assert main(["analyze"]) == 2
        path = str(tmp_path / "x.jsonl")
        assert main(["analyze", "--journal", path, "--db", path]) == 2


# -- adversarial orderings ----------------------------------------------------


def _synthetic_lines() -> list[str]:
    """A compact hand-built journal exercising every record type."""
    peer_a, peer_b = "aa" * 32, "bb" * 32
    events = [
        Event(type="bond", ts=1.0, fields={"node_id": peer_a, "ok": True}),
        Event(type="dial", ts=10.0, fields={
            "node_id": peer_a, "ip": "10.0.0.1", "tcp_port": 30303,
            "connection_type": "dynamic-dial", "outcome": "full-harvest",
            "latency": 0.05, "duration": 0.4, "started": 9.6, "attempt": 1,
        }),
        Event(type="hello", ts=10.0, fields={
            "node_id": peer_a, "client_id": "Geth/v1.8.0",
            "capabilities": [["eth", 63]], "listen_port": 30303,
        }),
        Event(type="status", ts=10.0, fields={
            "node_id": peer_a, "network_id": 1, "genesis_hash": "cc" * 32,
            "best_hash": "dd" * 32, "best_block": 4500000,
            "head_height": 4500100, "total_difficulty": 7,
        }),
        Event(type="dao", ts=10.0, fields={"node_id": peer_a, "verdict": "supports"}),
        Event(type="disconnect", ts=10.0, fields={
            "node_id": peer_a, "sent_by": "local", "reason": 8,
        }),
        Event(type="retry", ts=20.0, fields={"node_id": peer_b, "attempt": 1}),
        Event(type="dial", ts=21.0, fields={
            "node_id": peer_b, "ip": "10.0.0.2", "tcp_port": 30303,
            "connection_type": "dynamic-dial", "outcome": "refused",
            "failure_stage": "connect", "started": 20.9, "attempt": 2,
        }),
        Event(type="breaker", ts=22.0, fields={
            "node_id": peer_b, "old": "closed", "new": "open",
        }),
        Event(type="supervisor", ts=23.0, fields={"restarts": 1}),
    ]
    return [event.to_json() for event in events]


class TestAdversarialOrderings:
    def test_clean_synthetic_journal(self):
        replayed = replay_journal(_synthetic_lines())
        assert replayed.dials_replayed == 2
        entry = replayed.db.get(bytes.fromhex("aa" * 32))
        assert entry.client_id == "Geth/v1.8.0"
        assert entry.network_id == 1
        assert entry.dao_side == "supports"
        timeline = replayed.timeline(bytes.fromhex("bb" * 32))
        assert timeline.retries == 1
        assert timeline.breaker_opens == 1

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_journal_never_raises(self, seed):
        lines = _synthetic_lines()
        random.Random(seed).shuffle(lines)
        replayed = replay_journal(lines)
        # a dial for every peer survives any ordering
        assert replayed.dials_replayed == 2
        # orphaned companion facts still land on the entry
        entry = replayed.db.get(bytes.fromhex("aa" * 32))
        assert entry.client_id == "Geth/v1.8.0"

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        extra=st.integers(min_value=1, max_value=8),
    )
    def test_duplicated_records_never_raise(self, seed, extra):
        rng = random.Random(seed)
        lines = _synthetic_lines()
        lines += [rng.choice(lines) for _ in range(extra)]
        replayed = replay_journal(lines)
        assert replayed.db.get(bytes.fromhex("aa" * 32)) is not None

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=200))
    def test_truncated_final_line_degrades_gracefully(self, cut):
        lines = _synthetic_lines()
        whole, last = lines[:-1], lines[-1]
        truncated = whole + [last[: min(cut, len(last) - 1)]]
        replayed = replay_journal(truncated)  # must not raise
        assert replayed.events_replayed >= len(whole)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mangled_fields_are_skipped_not_fatal(self, data):
        lines = _synthetic_lines()
        index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        mangled = data.draw(st.sampled_from([
            '{"v": 1, "type": "dial", "ts": 5.0}',
            '{"v": 1, "type": "dial", "ts": 5.0, "node_id": "zz", '
            '"outcome": "full-harvest"}',
            '{"v": 1, "type": "dial", "ts": 5.0, "node_id": "' + "ee" * 32
            + '", "outcome": "no-such-outcome"}',
            '{"v": 1, "type": "hello", "ts": 5.0}',
        ]))
        lines[index] = mangled
        replayed = replay(read_events(lines))
        assert replayed.skipped or replayed.events_replayed == len(lines)


# -- dial fields that are not numbers ------------------------------------------


class TestUnusableFieldTypes:
    """``replay`` never raises on stream content — whatever JSON type a
    field arrives as."""

    @pytest.mark.parametrize(
        "field", ["tcp_port", "attempt", "latency", "duration", "started"]
    )
    @pytest.mark.parametrize("value", ["abc", None, [1], {}])
    def test_non_numeric_field_is_skipped_not_fatal(self, field, value):
        fields = {"node_id": "aa" * 32, "outcome": "timeout", field: value}
        replayed = replay([Event("dial", 5.0, fields), *read_events(_synthetic_lines())])
        assert replayed.skipped == [f"event 1: dial with unusable {field}"]
        assert replayed.dials_replayed == 2  # the journal's own two
        assert replayed.event_counts["dial"] == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_started_that_is_not_a_time_is_skipped(self, value):
        # json reads NaN / Infinity; a day index cannot be taken of them
        line = Event("dial", 5.0, {
            "node_id": "aa" * 32, "outcome": "timeout", "started": value,
        }).to_json()
        replayed = replay_journal([line])
        assert replayed.skipped == ["event 1: dial with unusable started"]
        assert replayed.dials_replayed == 0

    def test_numeric_strings_still_convert(self):
        replayed = replay([Event("dial", 5.0, {
            "node_id": "aa" * 32, "outcome": "timeout", "tcp_port": "30303",
        })])
        assert not replayed.skipped
        assert replayed.db.get(bytes.fromhex("aa" * 32)).tcp_port == 30303

    def test_hello_values_are_shared_only_between_equal_types(self):
        """Peers announcing one client share its string and capability
        list; a capability that merely compares equal keeps its own type,
        and one that cannot be hashed does not stop the replay."""
        announced = {"aa": ["eth", 1], "bb": ["eth", 1], "cc": ["eth", True], "dd": ["eth", {}]}
        lines = []
        for peer, capability in announced.items():
            node_id = peer * 32
            lines.append(Event("dial", 5.0, {
                "node_id": node_id, "outcome": "hello-no-status",
            }).to_json())
            lines.append(Event("hello", 5.0, {
                "node_id": node_id, "client_id": "Geth/v1.8.0",
                "capabilities": [capability],
            }).to_json())
        replayed = replay_journal(lines)
        a, b, c, d = (replayed.db.get(bytes.fromhex(peer * 32)) for peer in announced)
        assert not replayed.skipped
        assert a.client_id is b.client_id is c.client_id
        assert a.capabilities is b.capabilities
        assert c.capabilities[0][1] is True
        assert d.capabilities == [("eth", {})]

    @pytest.mark.parametrize("outcome", [["timeout"], {}, 7, None])
    def test_outcome_that_is_not_a_string_is_an_unknown_outcome(self, outcome):
        replayed = replay(
            [Event("dial", 5.0, {"node_id": "aa" * 32, "outcome": outcome})]
        )
        assert replayed.skipped == [
            f"event 1: dial with unknown outcome {outcome!r}"
        ]


ELASTIC_PATHS = sorted((DATA / "elastic_journal").glob("*.jsonl"))


@pytest.fixture(scope="module")
def elastic_lines():
    """The older elastic crawl's files as line lists, and their replay."""
    lines = [path.read_text(encoding="utf-8").splitlines() for path in ELASTIC_PATHS]
    return lines, replay_journals(lines)


class TestOlderJournals:
    """Journals an older crawler wrote still replay.

    ``data/elastic_journal`` is a crawl whose shard plan split at its
    third discovery tick and merged back at its ninth: four files, the
    ``.g1`` children among them, and three ``reshard`` records (a merge
    ends both parents).  Today's crawl of the same world with one shard
    folds the same NodeDB, entry for entry.
    """

    def test_an_elastic_crawl_replays_to_todays_nodedb(self):
        paths = ELASTIC_PATHS
        assert [path.name for path in paths] == [
            "nodefinder-0-shard0.g0.jsonl",
            "nodefinder-0-shard0.g1.jsonl",
            "nodefinder-0-shard0.g2.jsonl",
            "nodefinder-0-shard1.g1.jsonl",
        ]
        replayed = replay_journals(paths)
        assert not replayed.skipped
        assert replayed.event_counts["reshard"] == 3
        world = SimWorld(
            WorldConfig(
                population=PopulationConfig(
                    total_nodes=100, measurement_days=0.04, seed=41
                )
            )
        )
        fleet = run_fleet(
            world,
            instance_count=1,
            days=0.04,
            config=NodeFinderConfig(seed=7, discovery_interval=200),
        )
        [instance] = fleet.instances
        assert len(replayed.db) == len(instance.db) > 100
        for entry in instance.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_generation_order_reconstructs_same_nodedb(self, elastic_lines, seed):
        lines, baseline = elastic_lines
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        replayed = replay_journals(shuffled)
        assert not replayed.skipped
        assert len(replayed.db) == len(baseline.db)
        for entry in baseline.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cut=st.integers(min_value=1, max_value=120),
    )
    def test_duplicated_and_torn_generation_files_never_raise(
        self, elastic_lines, seed, cut
    ):
        lines, baseline = elastic_lines
        rng = random.Random(seed)
        copies = [list(segment) for segment in lines]
        duplicate = list(rng.choice(copies))
        duplicate[-1] = duplicate[-1][: max(0, len(duplicate[-1]) - cut)]
        copies.append(duplicate)
        rng.shuffle(copies)
        replayed = replay_journals(copies)  # must not raise
        assert {entry.node_id for entry in replayed.db} == {
            entry.node_id for entry in baseline.db
        }

    @settings(max_examples=20, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=200))
    def test_torn_tail_inside_sealed_parent_segment(self, elastic_lines, cut):
        """A crash could tear a parent file's last line, the ``reshard``
        record itself: every dial still replays."""
        lines, baseline = elastic_lines
        torn = [list(segment) for segment in lines]
        parent = torn[0]  # shard0.g0, split at step 3
        parent[-1] = parent[-1][: max(0, len(parent[-1]) - cut)]
        replayed = replay_journals(torn)  # must not raise
        assert len(replayed.db) == len(baseline.db)
        for entry in baseline.db:
            assert replayed.db.get(entry.node_id) == entry, entry.node_id.hex()


# -- streamed merge == fold of the sorted union -----------------------------------

PEERS = ("aa" * 32, "bb" * 32, "cc" * 32)


@st.composite
def _journal_events(draw):
    """A short run of records over three peers and a dozen instants, so
    that equal-``ts`` ties (inside a source and across sources) and
    re-dials of one peer are the common case, not the rare one."""
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        ts = float(draw(st.integers(min_value=0, max_value=11)))
        peer = draw(st.sampled_from(PEERS))

        def pick(*options):
            return draw(st.sampled_from(options))

        kind = pick(
            "dial", "dial", "hello", "status", "dao", "disconnect", "retry",
            "bond", "breaker", "subnet-breaker", "crawler", "table_admission",
            "reshard", "supervisor",
        )
        if kind == "dial":
            fields = {
                "node_id": peer,
                "ip": pick("10.0.0.1", "10.0.0.2"),
                "tcp_port": pick(30303, 30304),
                "connection_type": pick("dynamic-dial", "static-dial", "incoming"),
                "outcome": pick("no-such-outcome", *(o.value for o in DialOutcome)),
                "latency": pick(0.0, 0.05),
                "started": ts - pick(0.0, 0.25),
            }
        elif kind == "hello":
            fields = {
                "node_id": peer,
                "client_id": pick("Geth/v1.8.0", "Parity/v1.9", None),
                "capabilities": [["eth", pick(62, 63)]],
            }
        elif kind == "status":
            fields = {
                "node_id": peer,
                "network_id": pick(1, 3, None),
                "genesis_hash": pick("cc" * 32, "zz"),
                "best_block": pick(10, 20),
                "head_height": 30,
            }
        elif kind == "dao":
            fields = {"node_id": peer, "verdict": pick("supports", "opposes", None)}
        elif kind == "disconnect":
            fields = {
                "node_id": peer,
                "sent_by": pick("remote", "local"),
                "reason": pick(4, 16, 999),
            }
        elif kind == "bond":
            fields = {"node_id": peer, "ok": pick(True, False)}
        elif kind == "breaker":
            fields = {"node_id": peer, "new": pick("open", "closed")}
        elif kind == "subnet-breaker":
            kind = "breaker"
            fields = {"scope": "subnet", "subnet": "10.0.0", "new": "open"}
        elif kind == "crawler":
            fields = {"node_id": pick("ee" * 32, "ff" * 32), "name": "nodefinder-0"}
        elif kind == "table_admission":
            fields = {"node_id": peer, "reason": "subnet-cap", "subnet": "10.0.0"}
        elif kind == "reshard":
            fields = {"action": "split", "step": 1, "generation": pick(1, 2, None)}
        else:  # retry (per-peer) / supervisor (broadcast, no node_id)
            fields = {"node_id": peer} if kind == "retry" else {"restarts": 1}
        events.append(Event(kind, ts, fields))
    return events


def _products(crawl):
    """Everything a ``ReplayedCrawl`` carries, in comparable form."""
    return {
        "db": list(crawl.db),
        "days": dict(crawl.stats.days),
        "timelines": crawl.timelines,
        "skipped": crawl.skipped,
        "event_counts": crawl.event_counts,
        "events_replayed": crawl.events_replayed,
        "dials_replayed": crawl.dials_replayed,
        "crawler_names": crawl.crawler_names,
        "admission_rejections": crawl.admission_rejections,
        "rejected_subnets": crawl.rejected_subnets,
        "subnet_breaker_trips": crawl.subnet_breaker_trips,
    }


def _sorted_fold(sources):
    """The definition ``replay_journals`` must equal: fold the stable
    sort, by ``ts``, of the sources' events concatenated in argument order."""
    union = [event for lines in sources for event in read_events(lines)]
    return replay(sorted(union, key=lambda event: event.ts))


class TestStreamedMergeIsTheSortedFold:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_sources_in_any_form(self, data, tmp_path_factory):
        # (a session fixture: Hypothesis runs every example in one call)
        directory = tmp_path_factory.getbasetemp() / "streamed-merge-forms"
        directory.mkdir(exist_ok=True)
        sources = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            events = data.draw(_journal_events())
            # a file a crawl wrote is non-decreasing in ts; one that is
            # not (two runs appended, a hand edit) takes the sort fallback
            if data.draw(st.booleans(), label="written in time order"):
                events.sort(key=lambda event: event.ts)
            sources.append([event.to_json() for event in events])
        if data.draw(st.booleans(), label="one file twice, its copy torn"):
            victim = list(data.draw(st.sampled_from(sources)))
            if victim:
                victim[-1] = victim[-1][: len(victim[-1]) // 2]
            sources.append(victim + ["", "  "])
        sources = data.draw(st.permutations(sources))  # glob order is arbitrary

        handed = []
        for index, lines in enumerate(sources):
            form = data.draw(st.sampled_from(["lines", "path", "stream", "one-shot"]))
            if form == "path":
                path = directory / f"shard{index}.jsonl"
                path.write_text("\n".join(lines), encoding="utf-8")
                handed.append(path if index % 2 else str(path))
            elif form == "stream":
                handed.append(io.StringIO("\n".join(lines)))
            else:
                handed.append(iter(lines) if form == "one-shot" else lines)

        assert _products(replay_journals(handed)) == _products(_sorted_fold(sources))

    def test_a_source_that_steps_backwards_is_resorted(self):
        """The input that reaches the sort fallback, by name: one source
        whose ``ts`` decreases.  A merge would fold its records where
        they stand (port 1, then 3, then 2: the entry ends on 2); the
        contract is the sorted union (1, 2, 3: it ends on 3) — and a
        one-shot iterator must survive being read twice to get there."""
        def dial(ts, port):
            return Event("dial", ts, {
                "node_id": "aa" * 32, "outcome": "timeout", "tcp_port": port,
            }).to_json()

        backwards = [dial(10.0, 1), dial(30.0, 3), dial(20.0, 2)]
        other = [dial(5.0, 9)]
        for form in (list, iter, lambda lines: io.StringIO("\n".join(lines))):
            replayed = replay_journals([form(other), form(backwards)])
            assert replayed.db.get(bytes.fromhex("aa" * 32)).tcp_port == 3
            assert replayed.events_replayed == replayed.dials_replayed == 4
            assert _products(replayed) == _products(_sorted_fold([other, backwards]))

    def test_equal_timestamps_go_to_the_earlier_source(self):
        def dial(port):
            return [Event("dial", 7.0, {
                "node_id": "aa" * 32, "outcome": "timeout", "tcp_port": port,
            }).to_json()]

        assert replay_journals([dial(1), dial(2)]).db.get(
            bytes.fromhex("aa" * 32)
        ).tcp_port == 2
        assert replay_journals([dial(2), dial(1)]).db.get(
            bytes.fromhex("aa" * 32)
        ).tcp_port == 1

    def test_corrupt_file_is_named(self, tmp_path):
        good = Event("dial", 1.0, {"node_id": "aa" * 32, "outcome": "timeout"})
        clean = tmp_path / "nodefinder-0-shard0.jsonl"
        clean.write_text(good.to_json() + "\n", encoding="utf-8")
        corrupt = tmp_path / "nodefinder-0-shard1.jsonl"
        corrupt.write_text(
            "\n".join([good.to_json(), "{nope", good.to_json()]), encoding="utf-8"
        )
        with pytest.raises(
            JournalError, match=r"^nodefinder-0-shard1\.jsonl line 2: not valid JSON"
        ):
            replay_journals([clean, corrupt])
        with pytest.raises(JournalError, match=r"^nodefinder-0-shard1\.jsonl line 2"):
            replay_journal(str(corrupt))
        with pytest.raises(JournalError, match=r"^line 2: not valid JSON"):
            replay_journals([corrupt.read_text(encoding="utf-8").splitlines()])
