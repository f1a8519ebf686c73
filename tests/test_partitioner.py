"""Tests for stream partitioning helpers and the shard-ownership hash."""

import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer.plan import plan_query
from repro.core.partitioner import (
    filter_local_predicates,
    group_key,
    partition_by_group,
    shard_index,
    substreams,
    window_bounds,
    windows_of,
)
from repro.datasets.queries import stock_trend_query
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.events.event import Event
from repro.query.aggregates import count_star
from repro.query.ast import kleene_plus
from repro.query.builder import QueryBuilder
from repro.query.windows import WindowSpec
from repro.streaming.checkpoint import split_executor_snapshot
from repro.streaming.routing import ShardRouter


def query_with(window=None, group_by=()):
    builder = QueryBuilder().pattern(kleene_plus("A")).aggregate(count_star()).window(window)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


@pytest.fixture(scope="module")
def stock_stream():
    return list(generate_stock_stream(StockConfig(event_count=600, seed=41)))


class TestPartitioner:
    def test_group_key_and_partition(self):
        events = [Event("A", 1, {"g": 1}), Event("A", 2, {"g": 2}), Event("A", 3, {"g": 1})]
        assert group_key(events[0], ("g",)) == (1,)
        groups = partition_by_group(events, ("g",))
        assert {key: len(value) for key, value in groups.items()} == {(1,): 2, (2,): 1}

    def test_windows_of_without_window(self):
        assert windows_of(Event("A", 5.0), None) == [0]
        assert window_bounds(None, 0) == (None, None)

    def test_substreams_replicate_into_overlapping_windows(self):
        query = query_with(window=WindowSpec(10.0, 5.0), group_by=("g",))
        events = [Event("A", 7.0, {"g": 1})]
        keys = [key for key, _ in substreams(query, events)]
        assert keys == [(0, (1,)), (1, (1,))]

    def test_substreams_separate_groups(self):
        query = query_with(group_by=("g",))
        events = [Event("A", 1, {"g": 1}), Event("A", 2, {"g": 2})]
        result = dict(substreams(query, events))
        assert len(result) == 2
        assert all(len(events) == 1 for events in result.values())

    def test_filter_local_predicates_keeps_foreign_types(self):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .aggregate(count_star())
            .where_attribute_equals("A", "keep", True)
            .build()
        )
        events = [
            Event("A", 1, {"keep": True}),
            Event("A", 2, {"keep": False}),
            Event("Z", 3, {}),
        ]
        filtered = filter_local_predicates(query, events)
        assert [e.event_type for e in filtered] == ["A", "Z"]

    def test_filter_without_local_predicates_is_identity(self):
        query = query_with()
        events = [Event("A", 1), Event("Z", 2)]
        assert filter_local_predicates(query, events) == events


class TestPartitionByGroup:
    def test_partitions_by_group_attribute(self, stock_stream):
        plan = plan_query(stock_trend_query(window=None))
        partitions = partition_by_group(stock_stream, plan.partition_attributes)
        assert len(partitions) == len({event.get("company") for event in stock_stream})
        assert sum(len(bucket) for bucket in partitions.values()) == len(stock_stream)

    def test_partition_order_is_arrival_order(self, stock_stream):
        plan = plan_query(stock_trend_query(window=None))
        partitions = partition_by_group(stock_stream, plan.partition_attributes)
        for bucket in partitions.values():
            assert all(
                earlier.order_key <= later.order_key
                for earlier, later in zip(bucket, bucket[1:])
            )

    def test_query_without_grouping_uses_single_partition(self):
        plan = plan_query(query_with())
        assert plan.partition_attributes == ()
        events = [Event("A", 1.0), Event("A", 2.0), Event("A", 3.0)]
        partitions = partition_by_group(events, plan.partition_attributes)
        assert list(partitions.keys()) == [()]


#: a key component and the other values the executor's ``==`` groups with it
_EQUAL_FORMS = {
    0: (0, 0.0, -0.0, False),
    1: (1, 1.0, True),
    -3: (-3, -3.0),
    2**60: (2**60, float(2**60)),
}


@st.composite
def equal_key_pairs(draw):
    """Two partition keys that are ``==`` but may differ in their ``repr``."""
    left, right = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("number", "str", "none", "fraction")))
        if kind == "number":
            forms = _EQUAL_FORMS[draw(st.sampled_from(sorted(_EQUAL_FORMS)))]
            left.append(draw(st.sampled_from(forms)))
            right.append(draw(st.sampled_from(forms)))
        elif kind == "str":
            text = draw(st.text(max_size=6))
            left.append(text)
            right.append(text)
        elif kind == "fraction":
            value = draw(st.floats(allow_nan=False, allow_infinity=False))
            left.append(value)
            right.append(value)
        else:
            left.append(None)
            right.append(None)
    return tuple(left), tuple(right)


class TestShardIndex:
    def test_stable_and_in_range(self, stock_stream):
        plan = plan_query(stock_trend_query(window=None))
        for event in stock_stream[:50]:
            key = plan.partition_key(event)
            owner = shard_index(key, 4)
            assert 0 <= owner < 4
            assert owner == shard_index(key, 4), "shard owner must be stable"

    def test_single_shard_owns_everything(self):
        assert shard_index(("IBM",), 1) == 0
        assert shard_index((), 1) == 0

    def test_independent_of_hash_randomisation(self):
        # builtin hash() varies with PYTHONHASHSEED across processes, which
        # would break parent/worker agreement; crc32 of repr does not
        script = (
            "from repro.core.partitioner import shard_index;"
            "print([shard_index((k,), 5) for k in ('IBM', 'ACME', 'INFY')])"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        }
        assert len(outputs) == 1
        assert outputs == {f"{[shard_index((k,), 5) for k in ('IBM', 'ACME', 'INFY')]}\n"}

    def test_partitions_distribute_across_shards(self, stock_stream):
        plan = plan_query(stock_trend_query(window=None))
        keys = {plan.partition_key(event) for event in stock_stream}
        owners = {shard_index(key, 4) for key in keys}
        assert len(owners) > 1, "19 companies should span several shards"

    @settings(max_examples=300, deadline=None)
    @given(pair=equal_key_pairs(), shard_count=st.integers(min_value=1, max_value=64))
    def test_equal_keys_have_one_owner(self, pair, shard_count):
        left, right = pair
        assert left == right
        assert shard_index(left, shard_count) == shard_index(right, shard_count)

    def test_str_int_and_none_keys_hash_their_plain_repr(self):
        # the routing of existing deployments (and their checkpoints) must
        # not move: only bool and integral float components are rewritten
        for key in [("IBM",), (7,), (None,), ("a", -2, None), (), (10**30,)]:
            expected = zlib.crc32(repr(key).encode("utf-8")) % 97
            assert shard_index(key, 97) == expected
        assert shard_index((1.5,), 97) == zlib.crc32(b"(1.5,)") % 97

    @pytest.mark.parametrize(
        "key, routed_as",
        [
            ((True,), (1,)),
            ((False,), (0,)),
            ((2.0,), (2,)),
            ((-0.0,), (0,)),
            (("IBM", 1.0, True), ("IBM", 1, 1)),
            ((2.5, None, False), (2.5, None, 0)),
        ],
        ids=["true", "false", "float", "negative-zero", "mixed", "fraction"],
    )
    def test_bool_and_integral_float_hash_as_the_equal_int(self, key, routed_as):
        expected = zlib.crc32(repr(routed_as).encode("utf-8")) % 97
        assert shard_index(key, 97) == expected

    @settings(max_examples=200, deadline=None)
    @given(pair=equal_key_pairs(), workers=st.integers(min_value=1, max_value=8))
    def test_router_gives_equal_keys_one_worker(self, pair, workers):
        left, right = pair
        router = ShardRouter(workers)
        assert router.owner_of_key(left) == router.owner_of_key(right)

    def test_checkpoint_split_colocates_equal_keys(self):
        # a snapshot stores a group under the form of its first event; the
        # split must place it where the router sends every equal form
        snapshot = {
            "query": "q",
            "granularity": "type",
            "events_seen": 5,
            "last_time": 9.0,
            "aggregators": [
                [0, [form], None] for form in (1.0, True, -3.0, 0, "x")
            ],
        }
        for workers in (2, 3, 5):
            router = ShardRouter(workers)
            for shard, part in split_executor_snapshot(snapshot, workers).items():
                for _, (form,), _ in part["aggregators"]:
                    equal_forms = [
                        v for forms in _EQUAL_FORMS.values() for v in forms if v == form
                    ]
                    for other in equal_forms or [form]:
                        assert router.owner_of_key((other,)) == shard, (form, other)
