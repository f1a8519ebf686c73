"""The record path after the fold: result columns and the JSON row encoder.

The RETURN columns are resolved once per query and the encoder is built
once per process, and both must give exactly what their references give:
:meth:`TrendAccumulator.results` for the columns, ``json.dumps(...,
sort_keys=True, default=str)`` (``tests/helpers.py``) for the encoder.
"""

import enum
import json
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import stream
from helpers import reference_record_line
from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import plan_query
from repro.core.aggregate_state import TrendAccumulator, read_columns, result_columns
from repro.core.executor import QueryExecutor
from repro.core.results import GroupResult
from repro.events.event import Event
from repro.query.aggregates import AggregateFunction, AggregateSpec
from repro.query.parser import parse_query
from repro.streaming.emission import EmissionRecord
from repro.streaming.jsonl import record_to_json_line

# ---------------------------------------------------------------------------
# result columns
# ---------------------------------------------------------------------------

#: every aggregate function; the windows hold the whole stream, so every
#: window closes at the flush, where the open aggregators can be read first
COLUMNS_QUERY = """
RETURN g, COUNT(*), COUNT(A), SUM(A.v), MIN(A.v), MAX(A.v), AVG(A.v), AVG(B.v), COUNT(B)
PATTERN SEQ(A+, B)
SEMANTICS {semantics}
GROUP-BY g
WITHIN 1000 seconds SLIDE 400 seconds
"""


class TestResultColumns:
    @pytest.mark.parametrize("emit_empty_groups", [False, True])
    @pytest.mark.parametrize(
        "semantics, granularity",
        [
            ("skip-till-any-match", None),
            ("skip-till-any-match", Granularity.EVENT),
            ("skip-till-next-match", None),
            ("contiguous", None),
        ],
    )
    def test_rows_equal_the_accumulators_results(
        self, semantics, granularity, emit_empty_groups
    ):
        query = parse_query(COLUMNS_QUERY.format(semantics=semantics))
        executor = QueryExecutor(
            plan_query(query, forced_granularity=granularity),
            emit_empty_groups=emit_empty_groups,
        )
        events = stream(5, 300, types="AABC", groups="wxyz", span=50.0)
        # a group of B events alone finishes no trend: COUNT(*) 0, AVG None
        events += [Event("B", 60.0, {"g": "b", "v": 1}, sequence=1000)]
        for event in events:
            assert executor.process(event) == []
        expected = {
            (window_id, key): aggregator.final_accumulator().results(query.aggregates)
            for window_id, key, aggregator in executor.open_aggregators()
        }
        rows = executor.flush()
        assert rows
        got = {}
        for row in rows:
            key = tuple(row.group[name] for name in executor.plan.partition_attributes)
            got[(row.window_id, key)] = row.values
            assert list(row.values) == [spec.name for spec in query.aggregates]
        if not emit_empty_groups:
            expected = {
                where: row for where, row in expected.items() if row["COUNT(*)"]
            }
        else:
            assert any(values["AVG(A.v)"] is None for values in got.values())
        assert got == expected

    def test_count_without_its_own_target_reads_another_target_of_its_variable(self):
        targets = (("B", "x"), ("A", "v"), ("A", "w"))
        spec = AggregateSpec(AggregateFunction.COUNT, "A")
        ((name, slot, divisor),) = result_columns([spec], targets)
        assert (name, slot, divisor) == ("COUNT(A)", 4, None)

    def test_every_column_reads_what_result_value_reads(self):
        targets = (("B", "x"), ("A", "v"), ("A", None), ("C", "v"))
        specs = [
            AggregateSpec(AggregateFunction.COUNT),
            AggregateSpec(AggregateFunction.COUNT, "A"),
            AggregateSpec(AggregateFunction.COUNT, "B"),  # no (B, None) target
            AggregateSpec(AggregateFunction.COUNT, "C"),
        ]
        for function in (
            AggregateFunction.SUM,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
            AggregateFunction.AVG,
        ):
            specs += [AggregateSpec(function, variable, "v") for variable in "AC"]
            specs.append(AggregateSpec(function, "B", "x"))
        columns = result_columns(specs, targets)
        assert [column[0] for column in columns] == [spec.name for spec in specs]
        rng = random.Random(7)
        accumulator = TrendAccumulator(targets)
        for _ in range(20):
            accumulator.trend_count = rng.randint(0, 5)
            accumulator.slots = []
            for _target in targets:
                count = rng.randint(0, 3)
                low, high = sorted(rng.uniform(-5, 5) for _ in range(2))
                if count:
                    accumulator.slots += [count, count * 2.5, low, high]
                else:
                    accumulator.slots += [0, 0, None, None]
            assert read_columns(columns, accumulator) == accumulator.results(specs)


# ---------------------------------------------------------------------------
# the row encoder
# ---------------------------------------------------------------------------


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Level(enum.IntEnum):
    LOW = 1


class _Row:
    """An emitted-record stand-in: anything with ``as_dict``."""

    def __init__(self, payload):
        self._payload = payload

    def as_dict(self):
        return dict(self._payload)


#: names a group attribute or RETURN column may share with the metadata
NAMES = st.one_of(
    st.sampled_from(
        ["query", "watermark", "window_id", "is_correction", "g", "COUNT(*)"]
    ),
    st.sampled_from(["%s", "100%", "%%d", "ü", 'a"b', "\\", "\n", ""]),
    st.text(max_size=4),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),  # NaN, both infinities and -0.0 included
    st.text(max_size=6),
    st.builds(_Str, st.text(max_size=3)),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
    st.just(_Level.LOW),
    st.complex_numbers(max_magnitude=10, allow_nan=False),
    st.just(Decimal("1.10")),
)
VALUES = st.one_of(
    SCALARS,
    st.tuples(SCALARS, SCALARS),
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), SCALARS, max_size=3),
)


class TestRowEncoder:
    @settings(max_examples=400, deadline=None)
    @given(
        window_id=st.integers(min_value=0, max_value=10**6),
        group=st.dictionaries(NAMES, VALUES, max_size=3),
        values=st.dictionaries(NAMES, VALUES, max_size=4),
        watermark=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf)
        ),
        is_correction=st.booleans(),
    )
    def test_a_record_encodes_as_json_dumps(
        self, window_id, group, values, watermark, is_correction
    ):
        result = GroupResult(window_id, 0.0, 10.0, group, values, 1)
        record = EmissionRecord("q", result, watermark, is_correction)
        assert record_to_json_line(record) == reference_record_line(record)

    @settings(max_examples=200, deadline=None)
    @given(payload=st.dictionaries(NAMES, VALUES, max_size=6))
    def test_any_as_dict_encodes_as_json_dumps(self, payload):
        row = _Row(payload)
        assert record_to_json_line(row) == reference_record_line(row)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {1: "x", 2: None},
            {True: 1.5},
            {"a": [float("nan")], "b": {"z": 1, "y": (2, -0.0)}},
            {"x": Decimal("-0")},
        ],
    )
    def test_odd_rows_encode_as_json_dumps(self, payload):
        row = _Row(payload)
        assert record_to_json_line(row) == reference_record_line(row)

    def test_mixed_key_types_raise_as_json_dumps_raises(self):
        row = _Row({1: "x", "a": "y"})
        with pytest.raises(TypeError):
            reference_record_line(row)
        with pytest.raises(TypeError):
            record_to_json_line(row)

    def test_a_record_row_is_one_fresh_dict(self):
        group = {"g": "x", "query": "shadow"}
        result = GroupResult(3, 0.0, 10.0, group, {"COUNT(*)": 2}, 2)
        record = EmissionRecord("q", result, 5.0)
        row = record.as_dict()
        assert row == {
            "window_id": 3, "g": "x", "query": "q", "COUNT(*)": 2, "watermark": 5.0
        }
        assert list(row) == ["window_id", "g", "query", "COUNT(*)", "watermark"]
        assert json.loads(record_to_json_line(record)) == row
        row["g"] = "mutated"
        assert result.group["g"] == "x"
