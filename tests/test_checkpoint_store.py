"""Tests for the incremental on-disk checkpoint store.

The central property: a chain of incremental checkpoints (base + deltas,
with compaction) reconstructs exactly the snapshot a direct
``runtime.checkpoint()`` would have produced at the same cut -- across
store instances (i.e. across process restarts) -- and every failure path
(corrupt files, version mismatches, wrong query sets) surfaces as
:class:`CheckpointError` with an actionable message.
"""

import json

import pytest

from differential import stream
from repro.errors import CheckpointError
from repro.events.event import Event
from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    STORE_VERSION,
    CheckpointStore,
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


class TestBackgroundWrites:
    def test_background_store_writes_after_flush(self, tmp_path):
        runtime = build_runtime()
        with CheckpointStore(
            tmp_path / "ckpt", compact_every=3, background=True
        ) as store:
            last = None
            for index, event in enumerate(stream(count=120, span=120.0)):
                runtime.process(event)
                if index % 30 == 29:
                    last = runtime.checkpoint()
                    assert store.save(last) is None  # deferred to the writer
            store.flush()
            assert [entry.kind for entry in store.entries] == [
                "base", "delta", "delta", "base",
            ]
            assert normalised(store.load_latest()) == normalised(last)

    def test_background_write_error_surfaces_on_flush(self, tmp_path, monkeypatch):
        store = CheckpointStore(tmp_path / "ckpt", background=True)
        monkeypatch.setattr(
            store,
            "_write",
            lambda snapshot: (_ for _ in ()).throw(OSError("disk full")),
        )
        runtime = build_runtime()
        runtime.process(Event("A", 1.0, {"g": "a", "v": 1}))
        store.save(runtime.checkpoint())
        with pytest.raises(CheckpointError, match="disk full"):
            store.flush()

    def test_driver_loop_checkpoints_periodically(self, tmp_path):
        """run(source, sink, checkpoint_store=..., checkpoint_interval=...)"""
        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt", background=True)
        events = stream(count=100, span=120.0)
        runtime.run(events, checkpoint_store=store, checkpoint_interval=25)
        store.close()
        assert store.checkpoint_count == 4
        snapshot = store.load_latest()
        assert snapshot["metrics"]["events_ingested"] == 100
