"""Tests for the declarative job API (`repro.streaming.config`).

The central guarantees:

* every valid :class:`JobConfig` round-trips: ``from_dict(to_dict(c)) == c``
  (property-tested) and survives a JSON or TOML file;
* invalid specs fail eagerly with :class:`ConfigError` messages that name
  the offending key (with a typo suggestion) or the cross-field conflict;
* the *equivalence property*: a job launched via
  ``CograEngine.stream(**kwargs)``, via a hand-built :class:`JobConfig`,
  and via a config reloaded from its own ``to_dict()`` dump produces
  identical results on the same input stream -- for the single-process and
  the sharded topology.
"""

import dataclasses
import json
import multiprocessing
import re
import sys
import threading
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import job
from repro.baselines.oracle import expected_records
from repro.core.engine import CograEngine
from repro.errors import ConfigError
from repro.events.event import Event
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.config import (
    BackpressureConfig,
    BatchConfig,
    CheckpointConfig,
    JobConfig,
    LatenessConfig,
    ObsConfig,
    QueryConfig,
    RebalanceConfig,
    ServerConfig,
    ShardConfig,
    SinkConfig,
    SourceConfig,
    TenantConfig,
    WatermarkConfig,
)
from repro.streaming.ingest import LatePolicy
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime
from differential import canonical, stream
from helpers import assert_results_equal

LATENESS = 5.0

TYPE_QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

UNPARTITIONED_QUERY = """
RETURN COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
WITHIN 20 seconds SLIDE 10 seconds
"""


# ---------------------------------------------------------------------------
# component validation
# ---------------------------------------------------------------------------


#: every config class and the dotted path its settings live under -- the
#: test's own copy of the layout, so the derived paths have an oracle
SECTIONS = {
    JobConfig: "",
    QueryConfig: "queries[].",
    WatermarkConfig: "watermark.",
    LatenessConfig: "late.",
    ShardConfig: "shards.",
    RebalanceConfig: "shards.rebalance.",
    BatchConfig: "batch.",
    CheckpointConfig: "checkpoint.",
    SourceConfig: "source.",
    SinkConfig: "sink.",
    BackpressureConfig: "backpressure.",
    ObsConfig: "observability.",
    ServerConfig: "",
    TenantConfig: "tenants[].",
}

#: the settings without a default
REQUIRED = {QueryConfig: {"text": TYPE_QUERY}, TenantConfig: {"name": "team"}}

#: a second valid context (next to the defaults) for the classes with
#: cross-field rules: between the two, every value a field accepts on its
#: own can be constructed (``reprocess=True`` needs the side-channel policy)
WITNESS = {
    WatermarkConfig: {"kind": "punctuation", "punctuation_type": "Tick"},
    LatenessConfig: {"policy": "side-channel"},
    CheckpointConfig: {"dir": "ckpt", "interval": 4, "recover": True},
    ObsConfig: {"trace_path": "spans.jsonl", "trace_sample_rate": 0.5},
    SinkConfig: {"spec": "out.jsonl", "exactly_once": True},
    TenantConfig: {"max_events_per_second": 5.0, "burst": 5.0},
}


def field_examples():
    """Valid and invalid values of every field, generated from its declaration.

    The annotation gives the kind, ``field(metadata=...)`` the range or
    choices; each kind has its boundary values (valid) and its wrong
    shapes (invalid): wrong type, a bool for a number, NaN and the
    infinities, one step outside each bound, empty strings, unknown
    nested keys.  Yields ``pytest.param(cls, name, value, valid)``.
    """
    for cls in SECTIONS:
        hints = typing.get_type_hints(cls)
        for spec in dataclasses.fields(cls):
            hint, meta = hints[spec.name], spec.metadata
            args = typing.get_args(hint)
            optional = type(None) in args
            many = typing.get_origin(hint) is tuple
            base = args[0] if optional or many else hint
            valid, invalid = [], {"null": None}
            if optional:
                valid.append(invalid.pop("null"))
            if dataclasses.is_dataclass(base):
                entry = dict(REQUIRED.get(base, {}))
                typo = dict(entry, no_such_key=1)
                if many:
                    valid += [(), [entry], (base(**entry),)]
                    invalid.update(scalar="text", entry_scalar=[7], entry_typo=[typo])
                else:
                    valid += [entry, base(**entry)]
                    invalid.update(scalar="text", typo=typo)
            elif base is bool:
                valid += [True, False]
                invalid.update(string="false", integer=1)
            elif base is str:
                valid += meta.get("choices", ["x"])
                invalid.update(empty="", blank="  ", number=7)
                if "choices" in meta:
                    invalid["not_a_choice"] = "zzz"
            else:
                assert base in (int, float) and meta, (cls, spec.name)
                step = 1 if base is int else 0.5
                invalid.update(string="1", boolean=True)
                if base is int:
                    invalid["fraction"] = 1.5
                else:
                    invalid.update(
                        nan=float("nan"), inf=float("inf"), minus_inf=-float("inf")
                    )
                if "min" in meta:
                    valid.append(meta["min"])
                    invalid["below_min"] = meta["min"] - step
                if "above" in meta:
                    valid += [meta["above"] + step, meta["above"] + 1]
                    invalid.update(at_bound=meta["above"], below=meta["above"] - 1)
                if "max" in meta:
                    valid.append(meta["max"])
                    invalid["above_max"] = meta["max"] + step
            path = SECTIONS[cls] + spec.name
            for value in valid:
                yield pytest.param(cls, spec.name, value, True, id=f"{path}={value!r}")
            for shape, value in invalid.items():
                yield pytest.param(cls, spec.name, value, False, id=f"{path}-{shape}")


class TestDeclaredFields:
    """One declaration per setting: the dataclass field is all there is."""

    def test_the_config_surface_is_14_classes_and_55_fields(self):
        assert len(SECTIONS) == 14
        assert sum(len(dataclasses.fields(cls)) for cls in SECTIONS) == 55

    @pytest.mark.parametrize("cls, name, value, valid", field_examples())
    def test_field_accepts_and_rejects_by_its_declaration(
        self, cls, name, value, valid
    ):
        path = SECTIONS[cls] + name
        base = REQUIRED.get(cls, {})
        errors = []
        for context in (base, {**base, **WITNESS.get(cls, {})}):
            try:
                cls(**{**context, name: value})
            except ConfigError as exc:
                errors.append(str(exc))
        if valid:
            # accepted wherever the cross-field rules allow it
            assert len(errors) < 2, errors
        else:
            assert len(errors) == 2 and all(path in error for error in errors), errors

    def test_drifted_checks_are_gone(self, tmp_path):
        # each constructed before the checks were derived, while sibling
        # fields rejected the very same values
        with pytest.raises(ConfigError, match="checkpoint.compact_every"):
            CheckpointConfig(dir="x", interval=4, compact_every=True)
        with pytest.raises(ConfigError, match="watermark.lateness"):
            WatermarkConfig(lateness=float("nan"))
        with pytest.raises(ConfigError, match="backpressure.poll_interval_seconds"):
            BackpressureConfig(poll_interval_seconds=float("inf"))
        # json.loads accepts NaN/Infinity, so a config file can carry them
        path = tmp_path / "job.json"
        path.write_text('{"shards": {"rebalance": {"skew_threshold": NaN}}}')
        with pytest.raises(ConfigError, match="shards.rebalance.skew_threshold"):
            JobConfig.load(path)

    def test_missing_required_setting_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"queries\[0\].text is required"):
            JobConfig.from_dict({"queries": [{"name": "nameless"}]})


class TestComponentValidation:
    def test_punctuation_requires_type(self):
        with pytest.raises(ConfigError, match="punctuation_type"):
            WatermarkConfig(kind="punctuation")

    def test_punctuation_conflicts_with_lateness(self):
        with pytest.raises(ConfigError, match="punctuation"):
            WatermarkConfig(kind="punctuation", punctuation_type="Tick", lateness=5.0)

    def test_punctuation_type_requires_punctuation_kind(self):
        with pytest.raises(ConfigError, match="kind 'punctuation'"):
            WatermarkConfig(punctuation_type="Tick")

    def test_invalid_policy_lists_valid_values(self):
        with pytest.raises(ConfigError) as excinfo:
            LatenessConfig(policy="bogus")
        message = str(excinfo.value)
        for policy in LatePolicy:
            assert policy.value in message

    def test_choice_typos_get_a_suggestion(self):
        with pytest.raises(ConfigError, match="did you mean 'drop'"):
            LatenessConfig(policy="drp")
        with pytest.raises(ConfigError, match="did you mean 'mixed'"):
            QueryConfig(text=TYPE_QUERY, granularity="mxed")

    def test_side_channel_path_requires_side_channel_policy(self):
        with pytest.raises(ConfigError, match="side_channel_path"):
            LatenessConfig(policy="drop", side_channel_path="late.jsonl")

    def test_reprocess_requires_side_channel_policy(self):
        with pytest.raises(ConfigError, match="reprocess"):
            LatenessConfig(policy="raise", reprocess=True)

    def test_path_and_reprocess_are_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            LatenessConfig(
                policy="side-channel", side_channel_path="l.jsonl", reprocess=True
            )

    def test_shards_rebalance_section_is_coerced_and_validated(self):
        shards = ShardConfig(rebalance={"enabled": True, "min_interval": 64})
        assert shards.rebalance == RebalanceConfig(enabled=True, min_interval=64)
        with pytest.raises(ConfigError, match="did you mean 'max_moves'"):
            ShardConfig(rebalance={"max_movs": 2})

    def test_checkpoint_cross_field_rules(self):
        with pytest.raises(ConfigError, match="interval requires checkpoint.dir"):
            CheckpointConfig(interval=10)
        with pytest.raises(ConfigError, match="recover requires checkpoint.dir"):
            CheckpointConfig(recover=True)
        with pytest.raises(ConfigError, match="does nothing by itself"):
            CheckpointConfig(dir="ckpt")

    def test_config_error_is_a_value_error(self):
        # runtime constructors historically raised ValueError; callers
        # catching that must keep working
        with pytest.raises(ValueError):
            ShardConfig(workers=0)


class TestDocumentedPaths:
    """Prose names live settings only: a removed one cannot linger in it."""

    DOCUMENTS = ("README.md", ".claude/skills/verify/SKILL.md")

    @staticmethod
    def live_paths():
        live = set()
        for cls, prefix in SECTIONS.items():
            if prefix:
                live.update({prefix[:-1], prefix.removesuffix("[].")})
            live.update(prefix + spec.name for spec in dataclasses.fields(cls))
        return live

    @pytest.mark.parametrize("document", DOCUMENTS)
    def test_backticked_config_paths_are_live(self, document):
        """A backticked span opening with a dotted path whose first segment
        is a section (``shards.workers = 4``, ``checkpoint.*``) names a live
        section or setting; code that shares a section's name is written
        qualified (``repro.streaming.checkpoint...``, ``Sink.emit``)."""
        live = self.live_paths()
        firsts = {prefix.split(".")[0] for prefix in SECTIONS.values() if prefix}
        sections = "|".join(sorted(first.removesuffix("[]") for first in firsts))
        opening = re.compile(rf"`((?:{sections})(?:\[\])?(?:\.[\w*]+)+)")
        text = (Path(__file__).resolve().parent.parent / document).read_text()
        dead = sorted(
            {
                match.group(1)
                for match in opening.finditer(text)
                if match.group(1).removesuffix(".*") not in live
            }
        )
        assert dead == []


# ---------------------------------------------------------------------------
# unknown keys / typos
# ---------------------------------------------------------------------------


class TestUnknownKeys:
    def test_top_level_typo_is_suggested(self):
        with pytest.raises(ConfigError, match="did you mean 'watermark'"):
            JobConfig.from_dict({"watermrak": {}})

    def test_nested_typo_is_suggested(self):
        with pytest.raises(ConfigError, match="did you mean 'policy'"):
            JobConfig.from_dict({"late": {"polcy": "drop"}})

    def test_query_entry_typo_is_suggested(self):
        with pytest.raises(ConfigError, match="did you mean 'granularity'"):
            JobConfig.from_dict(
                {"queries": [{"text": TYPE_QUERY, "granularty": "type"}]}
            )

    def test_unknown_key_without_a_close_match_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid keys"):
            JobConfig.from_dict({"zzz": 1})

    def test_non_mapping_sections_are_rejected(self):
        with pytest.raises(ConfigError, match="must be an object"):
            JobConfig.from_dict({"late": "drop"})
        with pytest.raises(ConfigError, match="queries must be a list"):
            JobConfig.from_dict({"queries": TYPE_QUERY})


#: settings that were removed because nothing depended on them: a file
#: that still names one fails like any other unknown key, never silently
#: ignored -- (config class, raw settings, the path the error names)
REMOVED_SETTINGS = [
    pytest.param(
        JobConfig, {"shards": {"max_batch": 512}}, "shards.max_batch",
        id="shards.max_batch",
    ),
    pytest.param(
        JobConfig, {"source": {"log": {"dir": "events-log"}}}, "source.log",
        id="source.log.dir",
    ),
    pytest.param(
        JobConfig,
        {"checkpoint": {"dir": "ckpt", "interval": 8, "background": True}},
        "checkpoint.background",
        id="checkpoint.background",
    ),
    pytest.param(
        JobConfig,
        {"queries": [{"text": TYPE_QUERY, "emit_empty_groups": True}]},
        "queries[0].emit_empty_groups",
        id="queries[].emit_empty_groups",
    ),
    pytest.param(
        ServerConfig, {"queue_slices": 4}, "queue_slices", id="queue_slices"
    ),
    pytest.param(
        ServerConfig,
        {"poll_interval_seconds": 0.005},
        "poll_interval_seconds",
        id="poll_interval_seconds",
    ),
    # the granularity re-planning loop: a query keeps its static plan
    *(
        pytest.param(JobConfig, {"replan": {key: value}}, "replan", id=f"replan.{key}")
        for key, value in (
            ("enabled", True),
            ("check_interval_events", 2048),
            ("hysteresis", 0.25),
            ("max_migrations", 4),
            ("ewma_alpha", 0.5),
        )
    ),
]

#: the constructor keywords that went with them
REMOVED_KEYWORDS = [
    pytest.param(ShardedRuntime, {"max_batch": 512}, id="ShardedRuntime-max_batch"),
    pytest.param(ShardConfig, {"max_batch": 512}, id="ShardConfig-max_batch"),
    pytest.param(SourceConfig, {"log": {"dir": "events-log"}}, id="SourceConfig-log"),
    pytest.param(
        CheckpointConfig,
        {"dir": "ckpt", "interval": 8, "background": True},
        id="CheckpointConfig-background",
    ),
    pytest.param(
        CheckpointStore, {"directory": "ckpt", "background": True},
        id="CheckpointStore-background",
    ),
    pytest.param(
        QueryConfig,
        {"text": TYPE_QUERY, "emit_empty_groups": True},
        id="QueryConfig-emit_empty_groups",
    ),
    pytest.param(ServerConfig, {"queue_slices": 4}, id="ServerConfig-queue_slices"),
    pytest.param(
        ServerConfig,
        {"poll_interval_seconds": 0.005},
        id="ServerConfig-poll_interval_seconds",
    ),
    pytest.param(StreamingRuntime, {"replan": True}, id="StreamingRuntime-replan"),
    pytest.param(ShardedRuntime, {"replan": True}, id="ShardedRuntime-replan"),
]


class TestRemovedSettings:
    @pytest.mark.parametrize("cls, data, path", REMOVED_SETTINGS)
    def test_a_config_naming_a_removed_setting_is_rejected(self, cls, data, path):
        with pytest.raises(ConfigError, match=rf"unknown key '{re.escape(path)}'"):
            cls.from_dict(data)

    @pytest.mark.parametrize("cls, kwargs", REMOVED_KEYWORDS)
    def test_a_removed_keyword_is_a_type_error(
        self, cls, kwargs, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # where a CheckpointStore would make "ckpt"
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(**kwargs)

    def test_the_removed_replan_flag_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["stream", TYPE_QUERY, "--dry-run", "--replan"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --replan" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# round-tripping
# ---------------------------------------------------------------------------


class TestDeliveryConfig:
    """The delivery surface: source.spec log:DIR, sink.exactly_once, backpressure.*."""

    @pytest.mark.parametrize("key", ["partitions", "segment_records"])
    def test_log_layout_keys_are_unknown(self, key):
        """The log's layout is not configured: a config that sets it is
        rejected instead of being silently ignored."""
        with pytest.raises(ConfigError, match=rf"unknown key 'source\.{key}'"):
            JobConfig.from_dict({"source": {"spec": "log:events-log", key: 2}})

    @pytest.mark.parametrize("partitions, segment_records", [(1, 1024), (3, 4), (4, 1)])
    def test_log_source_reads_its_layout_from_the_directory(
        self, tmp_path, partitions, segment_records
    ):
        from repro.streaming.sources import PartitionedLogWriter

        events = [
            Event("A", float(index), {"g": "xyz"[index % 3]}, sequence=index)
            for index in range(12)
        ]
        with PartitionedLogWriter(
            tmp_path / "log", partitions=partitions, segment_records=segment_records
        ) as writer:
            writer.extend(events, key_by="g")
        config = JobConfig.from_dict({"source": {"spec": f"log:{tmp_path / 'log'}"}})
        source = config.source.build()
        try:
            assert source.partitions == partitions
            assert list(source.events()) == events
        finally:
            source.close()

    def test_backpressure_typo_is_suggested(self):
        with pytest.raises(ConfigError, match="did you mean 'max_inflight'"):
            JobConfig.from_dict({"backpressure": {"max_inflght": 8}})

    def test_exactly_once_requires_a_file_sink(self):
        for spec in (None, "-", "stdout"):
            with pytest.raises(ConfigError, match="exactly_once requires"):
                SinkConfig(spec=spec, exactly_once=True)
        SinkConfig(spec="out.jsonl", exactly_once=True)  # valid

    def test_exactly_once_build_is_transactional(self, tmp_path):
        from repro.streaming.sources import PartitionedLogWriter, TransactionalSink

        sink = SinkConfig(spec=str(tmp_path / "out.jsonl"), exactly_once=True).build()
        assert isinstance(sink, TransactionalSink)
        sink.close()

        with PartitionedLogWriter(tmp_path / "log") as writer:
            writer.append(Event("A", 1.0, {"g": "x"}, sequence=0))
        source = SourceConfig(spec=f"log:{tmp_path / 'log'}").build()
        assert type(source).__name__ == "PartitionedLogSource"
        source.close()

    def test_recover_build_preserves_the_existing_sink_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"kept": 1}\n')
        config = SinkConfig(spec=str(path), exactly_once=True)
        sink = config.build(recover=True)
        sink.close()
        assert path.read_text() == '{"kept": 1}\n'
        fresh = config.build(recover=False)
        fresh.close()
        assert path.read_text() == ""


def job_configs():
    """Hypothesis strategy over valid JobConfig instances."""
    watermarks = st.one_of(
        st.builds(
            WatermarkConfig,
            lateness=st.floats(
                min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False
            ),
        ),
        st.builds(
            WatermarkConfig,
            kind=st.just("punctuation"),
            punctuation_type=st.sampled_from(["Tick", "WM"]),
        ),
    )
    lates = st.one_of(
        st.builds(LatenessConfig, policy=st.sampled_from(["raise", "drop"])),
        st.builds(
            LatenessConfig,
            policy=st.just("side-channel"),
            side_channel_path=st.just("late.jsonl"),
        ),
        st.builds(
            LatenessConfig, policy=st.just("side-channel"), reprocess=st.just(True)
        ),
    )
    rebalances = st.builds(
        RebalanceConfig,
        enabled=st.booleans(),
        skew_threshold=st.floats(
            min_value=1.1, max_value=8.0, allow_nan=False, allow_infinity=False
        ),
        min_interval=st.integers(min_value=1, max_value=4096),
        max_moves=st.integers(min_value=1, max_value=16),
        slots_per_worker=st.integers(min_value=1, max_value=64),
    )
    shards = st.builds(
        ShardConfig,
        workers=st.integers(min_value=1, max_value=8),
        ship_interval=st.integers(min_value=1, max_value=128),
        max_restarts=st.integers(min_value=0, max_value=3),
        start_method=st.one_of(st.none(), st.sampled_from(["fork", "spawn"])),
        rebalance=rebalances,
    )
    batches = st.builds(BatchConfig, decode_batch_size=st.integers(1, 4096))
    checkpoints = st.one_of(
        st.builds(CheckpointConfig),
        st.builds(
            CheckpointConfig,
            dir=st.just("ckpt"),
            interval=st.integers(min_value=1, max_value=1000),
            compact_every=st.integers(min_value=1, max_value=16),
            recover=st.booleans(),
        ),
    )
    queries = st.lists(
        st.builds(
            QueryConfig,
            text=st.sampled_from([TYPE_QUERY, UNPARTITIONED_QUERY]),
            name=st.one_of(st.none(), st.sampled_from(["trends", "pairs"])),
            granularity=st.one_of(st.none(), st.just("event")),
        ),
        min_size=0,
        max_size=2,
    )
    sources = st.builds(
        SourceConfig, spec=st.sampled_from(["-", "x.jsonl", "log:events-log"])
    )
    sinks = st.one_of(
        st.builds(SinkConfig, spec=st.one_of(st.none(), st.just("out.jsonl"))),
        st.builds(
            SinkConfig, spec=st.just("out.jsonl"), exactly_once=st.just(True)
        ),
    )
    backpressures = st.builds(
        BackpressureConfig,
        max_inflight=st.integers(min_value=1, max_value=512),
        poll_interval_seconds=st.floats(
            min_value=0.001, max_value=1.0, allow_nan=False, allow_infinity=False
        ),
        max_wait_seconds=st.one_of(
            st.none(),
            st.floats(
                min_value=0.1, max_value=60.0, allow_nan=False, allow_infinity=False
            ),
        ),
    )
    traces = st.one_of(
        st.fixed_dictionaries({}),
        st.fixed_dictionaries(
            {
                "trace_path": st.just("spans.jsonl"),
                "trace_sample_rate": st.floats(min_value=0.01, max_value=1.0),
            }
        ),
    )
    observabilities = st.builds(
        lambda traced, **rest: ObsConfig(**traced, **rest),
        traces,
        metrics_export_path=st.one_of(st.none(), st.just("metrics.jsonl")),
        metrics_interval_seconds=st.floats(min_value=0.01, max_value=60.0),
        prometheus_port=st.one_of(st.none(), st.integers(0, 65535)),
    )
    return st.builds(
        JobConfig,
        queries=st.builds(tuple, queries),
        watermark=watermarks,
        late=lates,
        shards=shards,
        batch=batches,
        checkpoint=checkpoints,
        source=sources,
        sink=sinks,
        backpressure=backpressures,
        observability=observabilities,
        emit_empty_groups=st.booleans(),
    )


def leaf_values(data, prefix=""):
    """``(dotted path, value)`` of every leaf setting in a ``to_dict()`` form."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from leaf_values(value, f"{prefix}{key}.")
        elif isinstance(value, (list, tuple)) and all(
            isinstance(entry, dict) for entry in value
        ):
            for entry in value:
                yield from leaf_values(entry, f"{prefix}{key}[].")
        else:
            yield prefix + key, value


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path, reference",
        [
            pytest.param(path, value, id=path)
            for path, value in leaf_values(
                JobConfig(queries=(QueryConfig(text=TYPE_QUERY),)).to_dict()
            )
        ],
    )
    def test_the_strategy_varies_every_leaf(self, path, reference):
        """The round-trip properties below see every setting change: a
        leaf the strategy never varies fails the filter's health check."""

        @settings(max_examples=1, database=None, deadline=None)
        @given(
            job_configs().filter(
                lambda config: any(
                    drawn == path and value != reference
                    for drawn, value in leaf_values(config.to_dict())
                )
            )
        )
        def varies(config):
            pass

        varies()

    @settings(max_examples=60, deadline=None)
    @given(config=job_configs())
    def test_from_dict_inverts_to_dict(self, config):
        assert JobConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=60, deadline=None)
    @given(config=job_configs())
    def test_round_trip_survives_json_serialization(self, config):
        assert JobConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_configs_are_hashable_and_comparable(self):
        a = JobConfig(queries=(QueryConfig(text=TYPE_QUERY),))
        b = JobConfig(queries=(QueryConfig(text=TYPE_QUERY),))
        assert a == b
        assert hash(a) == hash(b)
        assert a != dataclasses.replace(a, emit_empty_groups=True)

    def test_query_list_is_normalised_to_a_tuple(self):
        config = JobConfig(queries=[QueryConfig(text=TYPE_QUERY)])
        assert isinstance(config.queries, tuple)


class TestFileLoading:
    def test_json_file_round_trip(self, tmp_path):
        config = JobConfig(
            queries=(QueryConfig(text=TYPE_QUERY, name="trends"),),
            watermark=WatermarkConfig(lateness=LATENESS),
            late=LatenessConfig(policy="drop"),
        )
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config.to_dict()))
        assert JobConfig.load(path) == config

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib requires Python 3.11+"
    )
    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "job.toml"
        path.write_text(
            "\n".join(
                [
                    "emit_empty_groups = false",
                    "[[queries]]",
                    f'text = """{TYPE_QUERY}"""',
                    'name = "trends"',
                    "[watermark]",
                    "lateness = 5.0",
                    "[late]",
                    'policy = "drop"',
                    "[shards]",
                    "workers = 2",
                ]
            )
        )
        config = JobConfig.load(path)
        assert config.queries[0].name == "trends"
        assert config.watermark.lateness == LATENESS
        assert config.late.policy == "drop"
        assert config.shards.workers == 2

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            JobConfig.load(tmp_path / "nope.json")

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            JobConfig.load(path)

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib requires Python 3.11+"
    )
    def test_invalid_toml_is_a_config_error(self, tmp_path):
        path = tmp_path / "job.toml"
        path.write_text("= broken")
        with pytest.raises(ConfigError, match="invalid TOML"):
            JobConfig.load(path)

    def test_non_object_top_level_is_a_config_error(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be an object"):
            JobConfig.load(path)


# ---------------------------------------------------------------------------
# cross-field validation
# ---------------------------------------------------------------------------


class TestValidate:
    def test_requires_a_query(self):
        with pytest.raises(ConfigError, match="at least one query"):
            JobConfig().validate()

    def test_rejects_duplicate_names(self):
        config = JobConfig(
            queries=(
                QueryConfig(text=TYPE_QUERY, name="q"),
                QueryConfig(text=TYPE_QUERY, name="q"),
            )
        )
        with pytest.raises(ConfigError, match="duplicate query names"):
            config.validate()

    def test_side_channel_requires_path_or_reprocess(self):
        config = JobConfig(
            queries=(QueryConfig(text=TYPE_QUERY),),
            late=LatenessConfig(policy="side-channel"),
        )
        with pytest.raises(ConfigError, match="side_channel_path"):
            config.validate()

    def test_unpartitioned_query_with_workers_warns(self):
        config = JobConfig(
            queries=(QueryConfig(text=UNPARTITIONED_QUERY),),
            shards=ShardConfig(workers=2),
        )
        with pytest.warns(RuntimeWarning, match="no partition attributes"):
            config.validate()

    def test_count_window_with_workers_warns_single_shard(self):
        count_query = TYPE_QUERY.replace(
            "WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 50 events"
        )
        config = JobConfig(
            queries=(QueryConfig(text=count_query),),
            shards=ShardConfig(workers=2),
        )
        with pytest.warns(RuntimeWarning, match="count-based windows"):
            config.validate()

    def test_count_window_with_one_worker_validates_silently(self):
        count_query = TYPE_QUERY.replace(
            "WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 50 events"
        )
        config = JobConfig(queries=(QueryConfig(text=count_query),))
        assert config.validate() is config

    def test_count_window_rejects_late_reprocess(self):
        """Its replay restarts event ordinals at 0, so corrections go astray."""
        count_query = TYPE_QUERY.replace(
            "WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 50 events"
        )
        config = JobConfig(
            queries=(
                QueryConfig(text=TYPE_QUERY, name="timed"),
                QueryConfig(text=count_query, name="counted"),
            ),
            late=LatenessConfig(policy="side-channel", reprocess=True),
        )
        with pytest.raises(ConfigError, match=r"\['counted'\].*late\.reprocess"):
            config.validate()
        config = dataclasses.replace(
            config, late=LatenessConfig(policy="side-channel", side_channel_path="l")
        )
        assert config.validate() is config

    def test_mixed_signatures_with_workers_warn(self):
        other = TYPE_QUERY.replace("GROUP-BY g", "GROUP-BY v")
        config = JobConfig(
            queries=(
                QueryConfig(text=TYPE_QUERY, name="a"),
                QueryConfig(text=other, name="b"),
            ),
            shards=ShardConfig(workers=2),
        )
        with pytest.warns(RuntimeWarning, match="different attributes"):
            config.validate()

    @pytest.mark.parametrize(
        "texts",
        [
            [TYPE_QUERY.replace("WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 9 events")],
            [UNPARTITIONED_QUERY],
            [TYPE_QUERY, TYPE_QUERY.replace("GROUP-BY g", "GROUP-BY v")],
        ],
        ids=["count-window", "unpartitioned", "different-attributes"],
    )
    def test_the_config_warns_with_the_runtimes_fallback_reason(self, texts):
        names = [f"q{index}" for index in range(len(texts))]
        config = JobConfig(
            queries=tuple(QueryConfig(text=t, name=n) for t, n in zip(texts, names)),
            shards=ShardConfig(workers=2),
        )
        with pytest.warns(RuntimeWarning) as validated:
            config.validate()
        runtime = ShardedRuntime(workers=2)
        for text, name in zip(texts, names):
            runtime.register(text, name=name)
        with pytest.warns(RuntimeWarning) as started:
            runtime.flush()  # starts the workers, then stops them
        assert [str(w.message) for w in validated] == [runtime.fallback_reason]
        assert [str(w.message) for w in started] == [runtime.fallback_reason]

    def test_resolved_names_fill_positional_defaults(self):
        config = JobConfig(
            queries=(
                QueryConfig(text=TYPE_QUERY),
                QueryConfig(text=TYPE_QUERY, name="named"),
                QueryConfig(text=TYPE_QUERY),
            )
        )
        assert config.resolved_names() == ("q1", "named", "q3")

    def test_granularity_plan_reports_resolution(self):
        config = JobConfig(
            queries=(
                QueryConfig(text=TYPE_QUERY, name="auto"),
                QueryConfig(text=TYPE_QUERY, name="forced", granularity="event"),
            )
        )
        plan = config.granularity_plan()
        assert plan == {"auto": "type", "forced": "event"}


# ---------------------------------------------------------------------------
# building and the reconciled defaults
# ---------------------------------------------------------------------------


class TestBuildRuntime:
    def test_workers_1_builds_streaming_runtime(self):
        config = JobConfig(queries=(QueryConfig(text=TYPE_QUERY, name="q"),))
        runtime = config.build_runtime()
        assert isinstance(runtime, StreamingRuntime)
        assert runtime.query_names == ["q"]

    def test_workers_n_builds_sharded_runtime(self):
        config = JobConfig(
            queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
            shards=ShardConfig(workers=3),
        )
        runtime = config.build_runtime()
        try:
            assert isinstance(runtime, ShardedRuntime)
            assert runtime.workers == 3
        finally:
            runtime.close()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("granularity", [None, "event"])
    def test_a_query_runs_at_its_configured_granularity(self, workers, granularity):
        config = JobConfig(
            queries=(QueryConfig(text=TYPE_QUERY, name="q", granularity=granularity),),
            watermark=WatermarkConfig(lateness=LATENESS),
            shards=ShardConfig(workers=workers),
        )
        with job(config, events=stream(count=40, disorder=LATENESS)).start() as running:
            planned = running.checkpoint()["executors"]["q"]["granularity"]
        assert planned == (granularity or "type")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_emit_empty_groups_reports_the_group_without_a_trend(self, workers):
        feed = [
            Event("A", 1.0, {"g": "x", "v": 1}, sequence=0),
            Event("B", 2.0, {"g": "x", "v": 2}, sequence=1),
            Event("A", 3.0, {"g": "y", "v": 3}, sequence=2),  # no B follows
        ]
        groups = {}
        for empty in (False, True):
            config = JobConfig(
                queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
                shards=ShardConfig(workers=workers),
                emit_empty_groups=empty,
            )
            records = job(config, events=feed).results()
            groups[empty] = sorted(record.result.group["g"] for record in records)
        assert groups == {False: ["x"], True: ["x", "y"]}

    def test_ship_interval_sets_how_often_the_parent_ships(self):
        # 36 events inside one window: no edge ships a wave early
        feed = [
            Event("AB"[i % 2], i * 0.25, {"g": "uvwx"[i % 4], "v": i}, sequence=i)
            for i in range(36)
        ]
        waves = {}
        for interval in (1, 64):
            config = JobConfig(
                queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
                shards=ShardConfig(workers=2, ship_interval=interval),
                batch=BatchConfig(decode_batch_size=4),
            )
            running = job(config, events=feed)
            running.results()
            waves[interval] = sum(s.batches_sent for s in running.runtime.shard_stats)
        # at 1 every four-event slice ships; 36 events never reach 64
        assert waves[1] > waves[64]

    @pytest.mark.parametrize("method", [None, "fork", "spawn"])
    def test_start_method_reaches_the_sharded_runtime(self, method):
        available = multiprocessing.get_all_start_methods()
        if method is not None and method not in available:
            pytest.skip(f"no {method} start method here")
        config = JobConfig(
            queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
            shards=ShardConfig(workers=2, start_method=method),
        )
        runtime = config.build_runtime()
        try:
            default = "fork" if "fork" in available else available[0]
            assert runtime._context.get_start_method() == (method or default)
        finally:
            runtime.close()

    def test_default_late_policy_is_raise_everywhere(self):
        # the historical divergence: CograEngine.stream said "raise" while
        # StreamingRuntime said DROP; LatenessConfig is now the single home
        assert LatenessConfig().policy == "raise"
        late = [
            Event("A", 50.0, {"g": "x", "v": 1}),
            Event("A", 1.0, {"g": "x", "v": 1}),
        ]
        runtime = StreamingRuntime()
        runtime.register(TYPE_QUERY, name="q")
        runtime.process(late[0])
        from repro.errors import LateEventError

        with pytest.raises(LateEventError):
            runtime.process(late[1])

    def test_runtime_constructor_validates_policy_eagerly(self):
        with pytest.raises(ConfigError, match="late.policy must be one of"):
            StreamingRuntime(late_policy="bogus")
        with pytest.raises(ConfigError, match="late.policy must be one of"):
            ShardedRuntime(late_policy="bogus")


class TestEquivalence:
    """One job spec, three launch styles, identical results."""

    def _config(self, workers):
        return JobConfig(
            queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
            watermark=WatermarkConfig(lateness=LATENESS),
            late=LatenessConfig(policy="drop"),
            shards=ShardConfig(workers=workers, ship_interval=1),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kwargs_config_and_reloaded_config_agree(self, workers):
        feed = stream(count=60, disorder=LATENESS)
        config = self._config(workers)

        engine = CograEngine.from_text(TYPE_QUERY)
        via_kwargs = list(
            engine.stream(
                feed, lateness=LATENESS, late_policy="drop", workers=workers
            )
        )
        via_config = job(config, events=feed).results()
        reloaded = JobConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        via_reload = job(reloaded, events=feed).results()

        assert canonical(via_config) == canonical(via_reload)
        assert_results_equal(via_kwargs, [r.result for r in via_config])

    def test_streamed_results_match_batch(self):
        feed = stream(count=60, disorder=LATENESS)
        records = job(self._config(1), events=feed).results()
        expected = expected_records([("q", TYPE_QUERY)], feed, LATENESS)
        assert canonical(records) == canonical(expected)


# ---------------------------------------------------------------------------
# the Job facade
# ---------------------------------------------------------------------------


class TestJobFacade:
    def _config(self, **overrides):
        base = dict(
            queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
            watermark=WatermarkConfig(lateness=LATENESS),
            late=LatenessConfig(policy="drop"),
        )
        base.update(overrides)
        return JobConfig(**base)

    def test_results_are_cached_and_job_is_stopped(self):
        running = job(self._config(), events=stream(count=60, disorder=LATENESS))
        records = running.results()
        assert records
        assert running.results() is records  # cached, not re-run
        assert running.metrics.events_ingested == 60

    def test_job_accepts_dict_and_path(self, tmp_path):
        config = self._config(source=SourceConfig(spec="unused"))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config.to_dict()))
        from_path = job(path, events=stream(count=60, disorder=LATENESS)).results()
        from_dict = job(config.to_dict(), events=stream(count=60, disorder=LATENESS)).results()
        assert canonical(from_path) == canonical(from_dict)

    def test_job_rejects_other_config_types(self):
        with pytest.raises(ConfigError, match="JobConfig"):
            job(42)

    def test_sink_spec_writes_jsonl(self, tmp_path):
        out = tmp_path / "out.jsonl"
        config = self._config(sink=SinkConfig(spec=str(out)))
        records = job(config, events=stream(count=60, disorder=LATENESS)).results()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == len(records)
        assert all(row["query"] == "q" for row in lines)

    def test_source_spec_reads_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(
                json.dumps({"type": e.event_type, "time": e.time, **e.attributes})
                + "\n"
                for e in stream(count=60, disorder=LATENESS)
            )
        )
        config = self._config(source=SourceConfig(spec=str(path)))
        in_memory = job(self._config(), events=stream(count=60, disorder=LATENESS)).results()
        from_file = job(config).results()
        assert canonical(from_file) == canonical(in_memory)

    def test_side_channel_path_persists_late_events(self, tmp_path):
        late_path = tmp_path / "late.jsonl"
        config = self._config(
            watermark=WatermarkConfig(lateness=0.0),
            late=LatenessConfig(
                policy="side-channel", side_channel_path=str(late_path)
            ),
        )
        feed = [
            Event("A", 50.0, {"g": "x", "v": 1}, sequence=0),
            Event("A", 10.0, {"g": "x", "v": 2}, sequence=1),  # late
        ]
        job(config, events=feed).results()
        written = [json.loads(line) for line in late_path.read_text().splitlines()]
        assert [row["time"] for row in written] == [10.0]

    def test_reprocess_emits_corrections(self):
        config = self._config(
            watermark=WatermarkConfig(lateness=0.0),
            late=LatenessConfig(policy="side-channel", reprocess=True),
        )
        feed = [
            Event("A", 1.0, {"g": "x", "v": 1}, sequence=0),
            Event("A", 2.0, {"g": "x", "v": 2}, sequence=1),
            Event("B", 30.0, {"g": "x", "v": 3}, sequence=2),
            Event("A", 3.0, {"g": "x", "v": 4}, sequence=3),  # late
            Event("B", 4.0, {"g": "x", "v": 5}, sequence=4),  # late
        ]
        records = job(config, events=feed).results()
        corrections = [r for r in records if r.is_correction]
        assert corrections, "late events must come back as corrections"

    def test_checkpoint_persists_into_the_store(self, tmp_path):
        config = self._config(
            checkpoint=CheckpointConfig(dir=str(tmp_path / "ckpt"), recover=True)
        )
        running = job(config, events=stream(count=60, disorder=LATENESS)).start()
        assert running.resume_notes and "starting fresh" in running.resume_notes[0]
        snapshot = running.checkpoint()
        assert snapshot["version"]
        running.stop()
        with CheckpointStore(str(tmp_path / "ckpt")) as store:
            assert store.load_latest() is not None

    def test_recover_resumes_and_skips_replayed_prefix(self, tmp_path):
        events = stream(count=60, disorder=LATENESS)
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(
                json.dumps(
                    {
                        "type": e.event_type,
                        "time": e.time,
                        "sequence": e.sequence,
                        **e.attributes,
                    }
                )
                + "\n"
                for e in events
            )
        )
        store_dir = str(tmp_path / "ckpt")
        config = self._config(
            source=SourceConfig(spec=str(path)),
            checkpoint=CheckpointConfig(dir=store_dir, interval=20, recover=True),
        )
        first = job(config).results()
        resumed_job = job(config)
        resumed = resumed_job.results()
        assert any("resumed from checkpoint" in n for n in resumed_job.resume_notes)
        assert any("skipping the" in n for n in resumed_job.resume_notes)
        # at-least-once: the resumed run re-emits exactly windows that were
        # still open at the last checkpoint -- same values, nothing new, and
        # nothing double-counted (the replayed prefix was skipped)
        assert resumed, "windows open at the last checkpoint must re-emit"
        assert set(canonical(resumed)) <= set(canonical(first))

    def test_failed_run_keeps_raising_instead_of_serving_partial_results(self):
        from repro.errors import LateEventError

        config = self._config(
            watermark=WatermarkConfig(lateness=0.0),
            late=LatenessConfig(policy="raise"),
        )
        feed = [
            Event("A", 50.0, {"g": "x", "v": 1}, sequence=0),
            Event("A", 10.0, {"g": "x", "v": 2}, sequence=1),  # late -> raises
        ]
        failed = job(config, events=feed)
        with pytest.raises(LateEventError):
            failed.results()
        # a retry must NOT silently return the partial (empty) record list
        with pytest.raises(RuntimeError, match="failed"):
            failed.results()

    def test_start_failures_name_the_setting_that_failed(self, tmp_path):
        import socket

        from repro.errors import JobStartError

        events = tmp_path / "events.jsonl"
        events.write_text("")
        corrupt = tmp_path / "ckpt"
        corrupt.mkdir()
        (corrupt / "MANIFEST.json").write_text("{ not json")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            cases = [
                ("source.spec", {"source": SourceConfig(spec=str(tmp_path / "nope"))}),
                (
                    "source.spec",
                    {"source": SourceConfig(spec=f"log:{tmp_path / 'nope'}")},
                ),
                ("sink.spec", {"sink": SinkConfig(spec=str(tmp_path))}),
                (
                    "checkpoint.dir",
                    {"checkpoint": CheckpointConfig(dir=str(corrupt), recover=True)},
                ),
                (
                    "observability.metrics_export_path",
                    {"observability": ObsConfig(metrics_export_path=str(tmp_path))},
                ),
                (
                    "observability.prometheus_port",
                    {
                        "observability": ObsConfig(
                            prometheus_port=taken.getsockname()[1]
                        )
                    },
                ),
                (
                    "late.side_channel_path",
                    {
                        "late": LatenessConfig(
                            policy="side-channel", side_channel_path=str(tmp_path)
                        )
                    },
                ),
            ]
            for path, overrides in cases:
                overrides.setdefault("source", SourceConfig(spec=str(events)))
                failing = job(self._config(**overrides))
                with pytest.raises(JobStartError, match=path) as excinfo:
                    failing.start()
                assert excinfo.value.path == path
                assert excinfo.value.__cause__ is not None
                # start() released whatever it had opened before failing
                with pytest.raises(RuntimeError, match="stopped"):
                    failing.results()

    @pytest.mark.parametrize(
        "compact_every, chain", [(1, ["base"]), (8, ["base"] + ["delta"] * 5)]
    )
    def test_checkpoints_compact_on_the_configured_chain_length(
        self, tmp_path, compact_every, chain
    ):
        # 60 events checkpointed every 10: six checkpoints
        config = self._config(
            checkpoint=CheckpointConfig(
                dir=str(tmp_path), interval=10, compact_every=compact_every
            )
        )
        job(config, events=stream(count=60, disorder=LATENESS)).results()
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        kinds = [link["kind"] for link in manifest["chain"]]
        assert kinds == chain

    def test_max_inflight_bounds_the_shipped_epochs(self):
        """One slice ships many waves at ship_interval=1; their acks are
        drained at the slice end, so a cap of 1 must block ingestion."""
        waits = {}
        for cap in (1, 10_000):
            config = self._config(
                shards=ShardConfig(workers=2, ship_interval=1),
                backpressure=BackpressureConfig(max_inflight=cap),
            )
            running = job(config, events=stream(count=200, disorder=LATENESS))
            running.results()
            waits[cap] = running.metrics.backpressure_waits
        assert waits[1] > 0
        assert waits[10_000] == 0

    def test_a_stuck_sink_is_polled_and_given_up_on_as_configured(self):
        from repro.errors import SourceError
        from repro.streaming.sources import MemorySink

        polls = []

        class StuckSink(MemorySink):
            def ready(self):
                # stuck for far longer than max_wait_seconds, but not forever
                polls.append(True)
                return len(polls) > 100

        config = self._config(
            backpressure=BackpressureConfig(
                poll_interval_seconds=0.05, max_wait_seconds=0.1
            )
        )
        running = job(
            config, events=stream(count=20, disorder=LATENESS), sink=StuckSink()
        )
        with pytest.raises(SourceError, match=r"max_wait_seconds=0\.1\)"):
            running.results()
        # a sleep never ends early: the step's check, then at most two polls
        assert len(polls) <= 3

    def test_every_event_is_traced_at_sample_rate_1(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        config = self._config(
            observability=ObsConfig(trace_path=str(path), trace_sample_rate=1.0)
        )
        job(config, events=stream(count=60, disorder=LATENESS)).results()
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(span["name"] == "event" for span in spans) == 60

    @pytest.mark.parametrize("interval, samples", [(3600.0, 2), (1e-9, 9)])
    def test_metrics_are_sampled_on_the_configured_interval(
        self, tmp_path, interval, samples
    ):
        """A sample is due on the first slice and then once per interval;
        the end of the job adds a final one.  60 events pulled 8 at a time
        are 8 slices."""
        path = tmp_path / "metrics.jsonl"
        config = self._config(
            batch=BatchConfig(decode_batch_size=8),
            observability=ObsConfig(
                metrics_export_path=str(path), metrics_interval_seconds=interval
            ),
        )
        job(config, events=stream(count=60, disorder=LATENESS)).results()
        assert len(path.read_text().splitlines()) == samples

    def test_records_drives_lazily_and_retains_nothing(self, tmp_path):
        out = tmp_path / "out.jsonl"
        config = self._config(
            sink=SinkConfig(spec=str(out)), batch=BatchConfig(decode_batch_size=8)
        )
        running = job(config, events=stream(count=60, disorder=LATENESS))
        drive = running.records()
        first = next(drive)
        # the drive is suspended mid-stream: only some slices were pulled
        assert 0 < running.metrics.events_ingested < 60
        rest = list(drive)
        assert running.metrics.events_ingested == 60
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(rest)
        assert json.loads(lines[0])["window_id"] == first.result.window_id
        assert running._records is None  # nothing was collected
        with pytest.raises(RuntimeError, match="already ran"):
            running.results()

    def test_start_twice_rejected(self):
        running = job(self._config(), events=stream(count=60, disorder=LATENESS)).start()
        with pytest.raises(RuntimeError, match="already started"):
            running.start()
        running.stop()

    def test_metrics_before_start_rejected(self):
        with pytest.raises(RuntimeError, match="not started"):
            job(self._config(), events=[]).metrics

    def test_context_manager_starts_and_stops(self):
        with job(self._config(), events=stream(count=60, disorder=LATENESS)) as running:
            assert running.runtime is not None
        with pytest.raises(RuntimeError, match="stopped"):
            running.results()


class TestJobThreadSafety:
    """stop() and results() from a second thread: cancel, serialize, idempotent."""

    def _config(self, **overrides):
        base = dict(
            queries=(QueryConfig(text=TYPE_QUERY, name="q"),),
            watermark=WatermarkConfig(lateness=LATENESS),
            late=LatenessConfig(policy="drop"),
        )
        base.update(overrides)
        return JobConfig(**base)

    def test_stop_from_second_thread_cancels_results(self):
        reached = threading.Event()
        release = threading.Event()

        def feed():
            for index, event in enumerate(stream(count=200, disorder=LATENESS)):
                if index == 20:
                    reached.set()
                    release.wait(10.0)
                yield event

        config = self._config(batch=BatchConfig(decode_batch_size=1))
        running = job(config, events=feed())
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(records=running.results())
        )
        thread.start()
        assert reached.wait(10.0), "the drive never reached the pause point"
        running.stop()
        release.set()
        thread.join(10.0)
        assert not thread.is_alive()
        partial = outcome["records"]
        # cancelled between slices: exactly the pre-pause prefix was ingested
        assert running.metrics.events_ingested == 20
        # the partial list is cached; repeated calls and stops are no-ops
        assert running.results() is partial
        running.stop()

    def test_concurrent_results_serialize_and_share_the_list(self):
        running = job(self._config(), events=stream(count=60, disorder=LATENESS))
        collected = []
        threads = [
            threading.Thread(target=lambda: collected.append(running.results()))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(collected) == 4
        assert all(records is collected[0] for records in collected)
        assert collected[0]

    def test_racing_stops_tear_down_once(self):
        running = job(self._config(), events=stream(count=60, disorder=LATENESS)).start()
        threads = [threading.Thread(target=running.stop) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        with pytest.raises(RuntimeError, match="stopped"):
            running.results()
