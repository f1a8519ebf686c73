"""Tests for the on-disk checkpoint store.

The central property: the store reads back exactly the snapshot a direct
``runtime.checkpoint()`` produced at the newest cut -- across store
instances (i.e. across process restarts) -- and every failure path
(corrupt files, version mismatches, wrong query sets, a delta chain
written by an older build) surfaces as :class:`CheckpointError` with an
actionable message.
"""

import hashlib
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
    EncodedEntry,
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


def reference_payloads(snapshots):
    """The files a store writes for ``snapshots``, built the plain way.

    Each file is one full snapshot, encoded once with ``json.dumps(payload,
    sort_keys=True)``: the layout the store's bytes must equal.
    """
    return [
        json.dumps(
            {
                "store_version": STORE_VERSION,
                "kind": "base",
                "id": checkpoint_id,
                "snapshot": snapshot,
            },
            sort_keys=True,
        )
        for checkpoint_id, snapshot in enumerate(snapshots, start=1)
    ]


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


class TestRoundTrip:
    def test_latest_checkpoint_reconstructs_exactly(self, tmp_path):
        events = stream(count=240, span=120.0)
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        last_direct = None
        for index, event in enumerate(events):
            runtime.process(event)
            if index % 30 == 29:
                last_direct = runtime.checkpoint()
                store.save(last_direct)
        assert normalised(store.load_latest()) == normalised(last_direct)

    def test_reconstruction_survives_store_restart(self, tmp_path):
        """A fresh store instance (new process) reads the checkpoint from disk."""
        events = stream(count=240, span=120.0)
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        cut = 180
        for index, event in enumerate(events[:cut]):
            runtime.process(event)
            if index % 40 == 39:
                store.save(runtime.checkpoint())

        reopened = CheckpointStore(tmp_path / "ckpt")
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

    def test_every_save_is_a_base_that_replaces_the_last(self, tmp_path):
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        for index, event in enumerate(stream(count=140, span=120.0)):
            runtime.process(event)
            if index % 20 == 19:
                store.save(runtime.checkpoint())
        assert [entry.kind for entry in store.entries] == ["base"] * 7
        # each save deleted the base it replaced
        files = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        assert files == ["MANIFEST.json", "base-00000007.json"]
        manifest = json.loads((tmp_path / "ckpt" / "MANIFEST.json").read_text())
        assert manifest["chain"] == [
            {"id": 7, "kind": "base", "file": "base-00000007.json"}
        ]

    def test_files_are_the_plain_sorted_json_of_the_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        runtime = build_runtime()
        snapshots, written = [], []
        for index, event in enumerate(stream(count=280, span=120.0)):
            runtime.process(event)
            if index % 40 == 39:
                snapshots.append(runtime.checkpoint())
                written.append(store.save(snapshots[-1]).path.read_text())
        assert written == reference_payloads(snapshots)

    #: per save: the file name and the first 16 hex digits of the SHA-256 of
    #: the base file and of the manifest, as the store wrote them when it
    #: could still chain deltas and was set to write full snapshots only
    FULL_SNAPSHOT_FILES = [
        ("base-00000001.json", "632e4ec84fc5f4e7", "c603cdf9d078097f"),
        ("base-00000002.json", "6a36b08ef60a0be4", "847467dd39ae817f"),
        ("base-00000003.json", "dfa2c9873bdaedd2", "046c82c64bf79a50"),
        ("base-00000004.json", "3d5cce48f3e65509", "9ab29783e90d84ee"),
        ("base-00000005.json", "bae48cb815e93153", "90a250e77476011a"),
        ("base-00000006.json", "9138e0b3a0d25473", "f541965e12ac3ddb"),
    ]

    @pytest.mark.parametrize("form", ["dicts", "encoded"])
    def test_the_files_are_those_of_the_full_snapshot_store(self, tmp_path, form):
        """Byte for byte what every save wrote before deltas were removed."""

        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        written = []
        for index, event in enumerate(stream(count=240, span=120.0)):
            runtime.process(event)
            if index % 40 == 39:
                snapshot = runtime.checkpoint()
                # the registry holds wall-clock latencies
                del snapshot["registry"]
                if form == "encoded":
                    snapshot = _encoded(snapshot)
                entry = store.save(snapshot)
                manifest = tmp_path / "ckpt" / "MANIFEST.json"
                written.append((entry.path.name, digest(entry.path), digest(manifest)))
        assert written == self.FULL_SNAPSHOT_FILES

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


#: a store written with a delta chain by the build that still wrote deltas:
#: the base, one delta and the manifest naming both
DELTA_STORE = {
    "MANIFEST.json": (
        '{"chain": [{"file": "base-00000001.json", "id": 1, "kind": "base"}, '
        '{"file": "delta-00000002.json", "id": 2, "kind": "delta"}], '
        '"next_id": 3, "store_version": 1}'
    ),
    "base-00000001.json": (
        '{"id": 1, "kind": "base", "snapshot": {"emitted_counts": {}, '
        '"executors": {"q": {"aggregators": [[0, ["x"], {"c": 1}], '
        '[1, ["x"], {"c": 2}]], "events_seen": 1, "granularity": "type", '
        '"last_time": 1.0, "query": "q"}}, "ingest": {}, "metrics": {}, '
        '"queries": [], "version": 1}, "store_version": 1}'
    ),
    "delta-00000002.json": (
        '{"emitted_counts": {}, "executors": {"q": {"changed": '
        '[[1, ["x"], {"c": 3}], [2, ["x"], {"c": 1}]], "events_seen": 2, '
        '"last_time": 2.0, "removed": [[0, ["x"]]]}}, "extra": {}, "id": 2, '
        '"ingest": {}, "kind": "delta", "metrics": {}, "parent": 1, '
        '"queries": [], "store_version": 1, "version": 1}'
    ),
}


class TestStoresOfTheDeltaBuild:
    def _write(self, directory, names):
        directory.mkdir()
        for name in names:
            (directory / name).write_text(DELTA_STORE[name])
        return directory

    def test_a_delta_chain_is_refused_naming_the_manifest(self, tmp_path):
        directory = self._write(tmp_path / "ckpt", DELTA_STORE)
        with pytest.raises(CheckpointError) as raised:
            CheckpointStore(directory).load_latest()
        message = str(raised.value)
        assert str(directory / "MANIFEST.json") in message
        assert "deltas" in message and "no longer reads" in message

    def test_a_save_replaces_a_delta_chain(self, tmp_path):
        directory = self._write(tmp_path / "ckpt", DELTA_STORE)
        store = CheckpointStore(directory)
        snapshot = json.loads(DELTA_STORE["base-00000001.json"])["snapshot"]
        store.save(snapshot)
        assert sorted(p.name for p in directory.iterdir()) == [
            "MANIFEST.json",
            "base-00000003.json",
        ]
        assert store.load_latest() == snapshot

    def test_a_lone_base_loads_unchanged(self, tmp_path):
        directory = self._write(tmp_path / "ckpt", ["base-00000001.json"])
        (directory / "MANIFEST.json").write_text(
            '{"chain": [{"file": "base-00000001.json", "id": 1, "kind": "base"}], '
            '"next_id": 2, "store_version": 1}'
        )
        expected = json.loads(DELTA_STORE["base-00000001.json"])["snapshot"]
        assert CheckpointStore(directory).load_latest() == expected


class TestFailurePaths:
    def _store_with_checkpoints(self, tmp_path, checkpoints=3):
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        for index, event in enumerate(stream(count=checkpoints * 20, span=120.0)):
            runtime.process(event)
            if index % 20 == 19:
                store.save(runtime.checkpoint())
        return store

    def test_corrupt_manifest_raises_with_guidance(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        (store.directory / "MANIFEST.json").write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable or corrupt"):
            CheckpointStore(store.directory)

    def test_manifest_version_mismatch_raises(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        manifest = json.loads((store.directory / "MANIFEST.json").read_text())
        manifest["store_version"] = STORE_VERSION + 1
        (store.directory / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="layout version"):
            CheckpointStore(store.directory)

    def test_truncated_checkpoint_file_raises(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        base = store.entries[-1].path
        base.write_text(base.read_text()[: len(base.read_text()) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            store.load_latest()

    def test_missing_checkpoint_file_raises(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        store.entries[-1].path.unlink()
        with pytest.raises(CheckpointError, match="missing, truncated or corrupt"):
            store.load_latest()

    def test_checkpoint_file_version_mismatch_raises(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        path = store.entries[-1].path
        payload = json.loads(path.read_text())
        payload["store_version"] = STORE_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="layout version"):
            store.load_latest()

    def test_a_manifest_naming_no_base_raises(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        store.entries[-1].path.write_text(DELTA_STORE["delta-00000002.json"])
        with pytest.raises(CheckpointError, match="does not hold a runtime snapshot"):
            store.load_latest()

    def test_restore_into_wrong_query_set_raises(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        snapshot = store.load_latest()
        other = build_runtime(OTHER_QUERY)
        with pytest.raises(CheckpointError, match="do not match"):
            other.restore(snapshot)

    def test_save_rejects_foreign_snapshot_versions(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="checkpoint version"):
            store.save({"version": CHECKPOINT_VERSION + 1, "executors": {}})

    def test_closed_store_rejects_writes_but_still_reads(self, tmp_path):
        store = self._store_with_checkpoints(tmp_path)
        snapshot = store.load_latest()
        store.close()
        with pytest.raises(CheckpointError, match="closed"):
            store.save(snapshot)
        assert store.load_latest() is not None  # reads survive close


class TestSynchronousWrites:
    def test_a_saved_checkpoint_is_on_disk_when_save_returns(self, tmp_path):
        runtime = build_runtime()
        with CheckpointStore(tmp_path / "ckpt") as store:
            kinds = []
            for index, event in enumerate(stream(count=120, span=120.0)):
                runtime.process(event)
                if index % 30 == 29:
                    last = runtime.checkpoint()
                    kinds.append(store.save(last).kind)
                    # a second reader of the directory sees it at once
                    reader = CheckpointStore(tmp_path / "ckpt")
                    assert normalised(reader.load_latest()) == normalised(last)
            assert kinds == ["base"] * 4

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
def _snapshot_sequences(draw):
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
    """``snapshot`` in a cut's form: each entry JSON can hold as its text."""

    def encoded(entry):
        try:
            return EncodedEntry(entry[0], entry[1], json.dumps(entry, sort_keys=True))
        except ValueError:  # past the digit limit: the cut keeps the list
            return entry

    executors = {
        name: {**state, "aggregators": [encoded(e) for e in state["aggregators"]]}
        for name, state in snapshot["executors"].items()
    }
    return {**snapshot, "executors": executors}


class TestFileWriter:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(snapshots=_snapshot_sequences())
    def test_files_and_the_quota_count_are_the_plain_sorted_json(
        self, tmp_path_factory, snapshots
    ):
        directory = tmp_path_factory.mktemp("writer")
        expected = reference_payloads(snapshots)
        for form, prepare in (("dicts", lambda s: s), ("encoded", _encoded)):
            store = CheckpointStore(directory / form)
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
