"""Tests for the incremental on-disk checkpoint store.

The central property: a chain of incremental checkpoints (base + deltas,
with compaction) reconstructs exactly the snapshot a direct
``runtime.checkpoint()`` would have produced at the same cut -- across
store instances (i.e. across process restarts) -- and every failure path
(corrupt files, version mismatches, wrong query sets) surfaces as
:class:`CheckpointError` with an actionable message.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

import repro
from differential import stream
from repro.errors import CheckpointError, StateQuotaError, WorkerCrashError
from repro.events.event import Event
from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    STORE_VERSION,
    CheckpointStore,
    encode_executor_snapshot,
)
from repro.streaming.runtime import StreamingRuntime

QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 40 seconds SLIDE 20 seconds
"""

OTHER_QUERY = """
RETURN g, COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-next-match
GROUP-BY g
WITHIN 40 seconds SLIDE 20 seconds
"""


def build_runtime(query_text=QUERY):
    runtime = StreamingRuntime(lateness=3.0)
    runtime.register(query_text, name="q")
    return runtime


def normalised(snapshot):
    """Order-independent rendering (aggregator list order is unspecified)."""
    snapshot = json.loads(json.dumps(snapshot, sort_keys=True))
    for state in snapshot["executors"].values():
        state["aggregators"].sort(key=lambda entry: (entry[0], json.dumps(entry[1])))
    return snapshot


def slot_of(entry):
    """The cells of one type-grained entry's ``A`` targets, for mutation."""
    return entry[2]["state"]["cells"]["A"]["states"][0]


def reference_payloads(snapshots, compact_every):
    """The files a store writes for ``snapshots``, built the plain way.

    Diffs entries by their JSON and encodes each file once with
    ``json.dumps(payload, sort_keys=True)``: the layout the store's bytes
    must equal.
    """
    payloads = []
    previous = None
    chain = 0
    for checkpoint_id, snapshot in enumerate(snapshots, start=1):
        entries = {
            name: {
                (entry[0], json.dumps(entry[1])): entry
                for entry in state["aggregators"]
            }
            for name, state in snapshot["executors"].items()
        }
        if previous is None or chain >= compact_every:
            payload = {
                "store_version": STORE_VERSION,
                "kind": "base",
                "id": checkpoint_id,
                "snapshot": snapshot,
            }
            chain = 1
        else:
            executors = {}
            for name, state in snapshot["executors"].items():
                before, now = previous.get(name, {}), entries[name]
                executors[name] = {
                    "events_seen": state["events_seen"],
                    "last_time": state["last_time"],
                    "changed": [
                        entry
                        for key, entry in now.items()
                        if key not in before
                        or json.dumps(before[key][2], sort_keys=True)
                        != json.dumps(entry[2], sort_keys=True)
                    ],
                    "removed": [
                        [entry[0], entry[1]]
                        for key, entry in before.items()
                        if key not in now
                    ],
                }
            full = ("version", "queries", "ingest", "metrics", "emitted_counts")
            payload = {
                "store_version": STORE_VERSION,
                "kind": "delta",
                "id": checkpoint_id,
                "parent": checkpoint_id - 1,
                "executors": executors,
                "extra": {
                    key: value
                    for key, value in snapshot.items()
                    if key not in full and key != "executors"
                },
                **{key: snapshot[key] for key in full},
            }
            chain += 1
        payloads.append(json.dumps(payload, sort_keys=True))
        previous = entries
    return payloads


def emission_signature(records):
    return [
        (
            record.query,
            record.result.window_id,
            tuple(sorted(record.result.group.items())),
            tuple(sorted(record.result.values.items())),
        )
        for record in records
    ]


class TestChainRoundTrip:
    def test_latest_checkpoint_reconstructs_exactly(self, tmp_path):
        events = stream(count=240, span=120.0)
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt", compact_every=4)
        last_direct = None
        for index, event in enumerate(events):
            runtime.process(event)
            if index % 30 == 29:
                last_direct = runtime.checkpoint()
                store.save(last_direct)
        assert normalised(store.load_latest()) == normalised(last_direct)

    def test_reconstruction_survives_store_restart(self, tmp_path):
        """A fresh store instance (new process) reads the chain from disk."""
        events = stream(count=240, span=120.0)
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt", compact_every=4)
        cut = 180
        for index, event in enumerate(events[:cut]):
            runtime.process(event)
            if index % 40 == 39:
                store.save(runtime.checkpoint())

        reopened = CheckpointStore(tmp_path / "ckpt", compact_every=4)
        resumed = build_runtime()
        resumed.restore(reopened.load_latest())
        records = []
        for event in events[160:]:  # replay from the last checkpoint cut
            records.extend(resumed.process(event))
        records.extend(resumed.flush())

        tail = build_runtime()
        for event in events[:160]:
            tail.process(event)
        expected = []
        for event in events[160:]:
            expected.extend(tail.process(event))
        expected.extend(tail.flush())
        assert emission_signature(records) == emission_signature(expected)

    def test_base_delta_pattern_and_pruning(self, tmp_path):
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt", compact_every=3)
        events = stream(count=140, span=120.0)
        for index, event in enumerate(events):
            runtime.process(event)
            if index % 20 == 19:
                store.save(runtime.checkpoint())
        kinds = [entry.kind for entry in store.entries]
        assert kinds == ["base", "delta", "delta", "base", "delta", "delta", "base"]
        # compaction pruned every superseded chain: only the live one remains
        files = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        assert files == ["MANIFEST.json", "base-00000007.json"]

    def test_compact_every_one_writes_only_bases(self, tmp_path):
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt", compact_every=1)
        for index, event in enumerate(stream(count=60, span=120.0)):
            runtime.process(event)
            if index % 20 == 19:
                store.save(runtime.checkpoint())
        assert [entry.kind for entry in store.entries] == ["base"] * 3

    def test_deltas_ship_only_the_changed_aggregators(self, tmp_path):
        """The point of incremental checkpoints: stable state is not rewritten."""
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(
            QUERY.replace("WITHIN 40 seconds SLIDE 20 seconds",
                          "WITHIN 1000 seconds SLIDE 1000 seconds"),
            name="q",
        )
        store = CheckpointStore(tmp_path / "ckpt", compact_every=100)
        # build up many groups, then touch only one
        for index in range(40):
            runtime.process(Event("A", float(index), {"g": f"g{index % 20}", "v": 1}))
        store.save(runtime.checkpoint())
        runtime.process(Event("A", 40.0, {"g": "g0", "v": 2}))
        entry = store.save(runtime.checkpoint())
        assert entry.kind == "delta"
        delta = json.loads(entry.path.read_text())
        changed = delta["executors"]["q"]["changed"]
        assert len(changed) == 1  # only g0's aggregator changed
        assert delta["executors"]["q"]["removed"] == []
        assert entry.bytes_written < store.entries[0].bytes_written

    @pytest.mark.parametrize(
        "before, after",
        [(0, 0.0), (0.0, -0.0), (1, True), (2**1024 - 1, 2**1024)],
        ids=["int-to-float", "zero-sign", "int-to-bool", "near-2**1024"],
    )
    def test_a_delta_holds_exactly_the_entry_whose_json_changed(
        self, tmp_path, before, after
    ):
        runtime = build_runtime()
        for event in stream(count=60, span=120.0):
            runtime.process(event)
        first = runtime.checkpoint()
        second = copy.deepcopy(first)
        slot_of(first["executors"]["q"]["aggregators"][-2])[1] = before
        flipped = second["executors"]["q"]["aggregators"][-2]
        slot_of(flipped)[1] = after
        store = CheckpointStore(tmp_path / "ckpt")
        store.save(first)
        entry = store.save(second)
        assert entry.kind == "delta"
        delta = json.loads(entry.path.read_text())
        assert delta["executors"]["q"]["changed"] == [
            json.loads(json.dumps(flipped))
        ]
        assert delta["executors"]["q"]["removed"] == []

    def test_an_unchanged_nan_stays_out_of_the_delta(self, tmp_path):
        runtime = build_runtime()
        for event in stream(count=60, span=120.0):
            runtime.process(event)
        first = runtime.checkpoint()
        second = copy.deepcopy(first)
        slot_of(first["executors"]["q"]["aggregators"][-2])[1] = float("nan")
        slot_of(second["executors"]["q"]["aggregators"][-2])[1] = float("nan")
        store = CheckpointStore(tmp_path / "ckpt")
        store.save(first)
        delta = json.loads(store.save(second).path.read_text())
        assert delta["executors"]["q"]["changed"] == []

    @pytest.mark.parametrize("compact_every", [None, 3])
    def test_files_are_the_plain_sorted_json_of_the_chain(
        self, tmp_path, compact_every
    ):
        options = {} if compact_every is None else {"compact_every": compact_every}
        store = CheckpointStore(tmp_path / "ckpt", **options)
        runtime = build_runtime()
        snapshots, written = [], []
        for index, event in enumerate(stream(count=280, span=120.0)):
            runtime.process(event)
            if index % 40 == 39:
                snapshots.append(runtime.checkpoint())
                written.append(store.save(snapshots[-1]).path.read_text())
        expected = reference_payloads(snapshots, store.compact_every)
        assert [json.loads(text)["kind"] for text in expected].count("delta") >= 4
        assert written == expected

    def test_a_delta_keeps_window_order_past_window_9(self, tmp_path):
        """The entries come back in ``_entry_order``: window 10 after 9."""
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(
            "RETURN g, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match "
            "GROUP-BY g WITHIN 30 seconds SLIDE 1 seconds",
            name="q",
        )
        store = CheckpointStore(tmp_path / "ckpt")
        for index in range(120):
            runtime.process(Event("A", index * 0.25, {"g": "x"}))
            if index + 1 in (50, 120):
                snapshot = runtime.checkpoint()
                entry = store.save(snapshot)
        assert entry.kind == "delta"
        windows = [entry[0] for entry in snapshot["executors"]["q"]["aggregators"]]
        assert {9, 10} <= set(windows)
        assert store.load_latest()["executors"] == snapshot["executors"]

    def test_a_count_past_the_int_digit_limit_names_query_and_limit(self, tmp_path):
        # 15,000 S events in one group and window: COUNT(*) = 2**15000 - 1,
        # 4,516 digits, past CPython's default 4,300-digit int-to-str limit
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(
            "RETURN g, COUNT(*) PATTERN S+ SEMANTICS skip-till-any-match "
            "GROUP-BY g WITHIN 100000 seconds",
            name="huge",
        )
        runtime.process_batch(
            [Event("S", index * 0.001, {"g": "x"}) for index in range(15_000)]
        )
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(CheckpointError) as raised:
            store.save(runtime.checkpoint())
        assert "'huge'" in str(raised.value)
        assert "sys.set_int_max_str_digits" in str(raised.value)
        assert store.load_latest() is None

    def test_a_count_past_the_int_digit_limit_names_query_and_limit_at_2_workers(
        self, tmp_path
    ):
        # the worker cannot encode the entry; it ships it as a dict and the
        # store raises what it raises for a single-process snapshot
        config = {
            "queries": [
                {
                    "name": "huge",
                    "text": "RETURN g, COUNT(*) PATTERN S+ SEMANTICS "
                    "skip-till-any-match GROUP-BY g WITHIN 100000 seconds",
                }
            ],
            "shards": {"workers": 2, "max_restarts": 1},
            "checkpoint": {"dir": str(tmp_path / "ckpt"), "interval": 15_000},
        }
        events = [Event("S", index * 0.001, {"g": "x"}) for index in range(15_000)]
        running = repro.job(config, events=events).start()
        with pytest.raises(CheckpointError) as raised:
            running.results()
        assert not isinstance(raised.value, WorkerCrashError)
        assert "'huge'" in str(raised.value)
        assert "sys.set_int_max_str_digits" in str(raised.value)
        assert running.runtime.shard_count == 2
        assert running.runtime.restart_counts == [0, 0]
        assert CheckpointStore(tmp_path / "ckpt").load_latest() is None

    def test_empty_store_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load_latest() is None
        assert store.latest_id() is None

    def test_entries_metadata(self, tmp_path):
        runtime = build_runtime()
        runtime.process(Event("A", 1.0, {"g": "a", "v": 1}))
        store = CheckpointStore(tmp_path / "ckpt")
        entry = store.save(runtime.checkpoint())
        assert entry.kind == "base"
        assert entry.bytes_written == len(entry.path.read_text())
        assert store.checkpoint_count == 1
        assert store.latest_id() == entry.checkpoint_id


class TestFailurePaths:
    def _store_with_chain(self, tmp_path, checkpoints=3):
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt", compact_every=10)
        for index, event in enumerate(stream(count=checkpoints * 20, span=120.0)):
            runtime.process(event)
            if index % 20 == 19:
                store.save(runtime.checkpoint())
        return store

    def test_corrupt_manifest_raises_with_guidance(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        (store.directory / "MANIFEST.json").write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable or corrupt"):
            CheckpointStore(store.directory)

    def test_manifest_version_mismatch_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        manifest = json.loads((store.directory / "MANIFEST.json").read_text())
        manifest["store_version"] = STORE_VERSION + 1
        (store.directory / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="layout version"):
            CheckpointStore(store.directory)

    def test_truncated_checkpoint_file_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        delta = store.entries[-1].path
        delta.write_text(delta.read_text()[: len(delta.read_text()) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            store.load_latest()

    def test_missing_checkpoint_file_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        store.entries[0].path.unlink()
        with pytest.raises(CheckpointError, match="missing, truncated or corrupt"):
            store.load_latest()

    def test_checkpoint_file_version_mismatch_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        path = store.entries[-1].path
        payload = json.loads(path.read_text())
        payload["store_version"] = STORE_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="layout version"):
            store.load_latest()

    def test_broken_chain_parent_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        path = store.entries[-1].path
        payload = json.loads(path.read_text())
        payload["parent"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="the store is corrupt"):
            store.load_latest()

    def test_mangled_delta_body_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        path = store.entries[-1].path
        payload = json.loads(path.read_text())
        del payload["executors"]["q"]["changed"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="cannot be applied"):
            store.load_latest()

    def test_restore_into_wrong_query_set_raises(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        snapshot = store.load_latest()
        other = build_runtime(OTHER_QUERY)
        with pytest.raises(CheckpointError, match="do not match"):
            other.restore(snapshot)

    def test_save_rejects_foreign_snapshot_versions(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="checkpoint version"):
            store.save({"version": CHECKPOINT_VERSION + 1, "executors": {}})

    def test_closed_store_rejects_writes_but_still_reads(self, tmp_path):
        store = self._store_with_chain(tmp_path)
        snapshot = store.load_latest()
        store.close()
        with pytest.raises(CheckpointError, match="closed"):
            store.save(snapshot)
        assert store.load_latest() is not None  # reads survive close


class TestSynchronousWrites:
    def test_a_saved_checkpoint_is_on_disk_when_save_returns(self, tmp_path):
        runtime = build_runtime()
        with CheckpointStore(tmp_path / "ckpt", compact_every=3) as store:
            kinds = []
            for index, event in enumerate(stream(count=120, span=120.0)):
                runtime.process(event)
                if index % 30 == 29:
                    last = runtime.checkpoint()
                    kinds.append(store.save(last).kind)
                    # a second reader of the directory sees it at once
                    reader = CheckpointStore(tmp_path / "ckpt")
                    assert normalised(reader.load_latest()) == normalised(last)
            assert kinds == ["base", "delta", "delta", "base"]

    def test_a_failed_write_raises_from_save(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path / "ckpt")
        monkeypatch.setattr(
            store,
            "_write",
            lambda snapshot: (_ for _ in ()).throw(OSError("disk full")),
        )
        runtime = build_runtime()
        runtime.process(Event("A", 1.0, {"g": "a", "v": 1}))
        with pytest.raises(OSError, match="disk full"):
            store.save(runtime.checkpoint())

    def test_driver_loop_checkpoints_periodically(self, tmp_path):
        """run(source, sink, checkpoint_store=..., checkpoint_interval=...)"""
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        events = stream(count=100, span=120.0)
        runtime.run(events, checkpoint_store=store, checkpoint_interval=25)
        store.close()
        assert store.checkpoint_count == 4
        snapshot = store.load_latest()
        assert snapshot["metrics"]["events_ingested"] == 100


#: JSON-safe state values, the awkward ones included: signed zeros, NaN and
#: the infinities, bools beside ints, ints at the digit limit, non-ASCII text
_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 0.0, -0.0, 1, True, 10**4299, -(10**4299)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_KEYS = st.lists(st.one_of(st.text(max_size=3), st.integers(-3, 3)), max_size=2)


@st.composite
def _snapshot_chains(draw):
    """Snapshots over one pool of entries: kept, changed, added and dropped."""
    names = draw(st.lists(st.text(max_size=3), min_size=0, max_size=2, unique=True))
    pools = {
        name: draw(
            st.lists(
                st.tuples(st.integers(0, 3), _KEYS),
                max_size=4,
                unique_by=lambda item: (item[0], repr(item[1])),
            )
        )
        for name in names
    }
    snapshots = []
    for number in range(draw(st.integers(1, 4))):
        executors = {}
        for name, pool in pools.items():
            entries = []
            for window_id, key in pool:
                if draw(st.booleans()):
                    state = {"state": draw(_VALUES) if draw(st.booleans()) else 0}
                    entries.append([window_id, key, state])
            executors[name] = {
                "query": name,
                "granularity": "type",
                "events_seen": number,
                "last_time": draw(st.none() | st.floats(allow_nan=False)),
                "aggregators": entries,
            }
        snapshots.append(
            {
                "version": CHECKPOINT_VERSION,
                "queries": [],
                "executors": executors,
                "ingest": {"clock": draw(_VALUES)},
                "metrics": {},
                "emitted_counts": {},
                "extra-é": draw(_VALUES),
            }
        )
    return snapshots


def _encoded(snapshot):
    executors = {
        name: encode_executor_snapshot(dict(state))
        for name, state in snapshot["executors"].items()
    }
    return {**snapshot, "executors": executors}


class TestFileWriter:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(snapshots=_snapshot_chains())
    def test_files_and_the_quota_count_are_the_plain_sorted_json(
        self, tmp_path_factory, snapshots
    ):
        directory = tmp_path_factory.mktemp("writer")
        expected = reference_payloads(snapshots, 2)
        for form, prepare in (("dicts", lambda s: s), ("encoded", _encoded)):
            store = CheckpointStore(directory / form, compact_every=2)
            written = [
                store.save(prepare(snapshot)).path.read_text() for snapshot in snapshots
            ]
            assert written == expected, form
            # the quota counts the executors section's JSON bytes exactly
            first = snapshots[0]
            size = len(json.dumps(first["executors"], sort_keys=True).encode())
            exact = CheckpointStore(directory / f"{form}-exact", max_state_bytes=size)
            exact.save(prepare(first))
            tight = CheckpointStore(
                directory / f"{form}-tight", max_state_bytes=max(size - 1, 1)
            )
            with pytest.raises(StateQuotaError) as raised:
                tight.save(prepare(first))
            assert raised.value.state_bytes == size
