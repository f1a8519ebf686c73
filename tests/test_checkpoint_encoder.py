"""The generated checkpoint-entry encoder against its reference.

A type-grained plan compiles ``render(window_id, key, aggregator)``
(:func:`repro.streaming.checkpoint.entry_encoder`), which must write an
entry in exactly the bytes of :func:`reference_entry_text` -- the tree of
:func:`snapshot_aggregator` encoded by ``json.dumps(..., sort_keys=True)``
-- or decline and leave the entry to the reference; every other plan's
encoder declines every entry.  The states drawn here
hold what the inline rendering must not get wrong: counts past 2^64,
signed zeros, the infinities and NaN, ``None``, bools, an ``IntEnum`` and
``Decimal`` attribute values, non-ASCII and escape-needing text, and keys
mixing str, int, float and ``None``.
"""

import enum
import linecache
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import create_aggregator
from repro.errors import CheckpointError
from repro.events.event import Event
from repro.streaming.checkpoint import (
    _HANDLERS,
    CheckpointStore,
    EncodedEntry,
    encode_entry,
    entry_encoder,
    reference_entry_text,
    restore_aggregator_state,
    snapshot_aggregator,
)
from repro.streaming.runtime import StreamingRuntime


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


def _query(returns, pattern, semantics, keys="g", where=None):
    text = f"RETURN {keys}, {returns} PATTERN {pattern} SEMANTICS {semantics} "
    if where:
        text += f"WHERE {where} "
    return text + f"GROUP-BY {keys} WITHIN 20 seconds SLIDE 5 seconds"


ANY = "skip-till-any-match"

#: ``(query, forced granularity, class)``: every registered class, positive,
#: negated, event-storing and pattern-grained, at 1-3 variables, 1-3
#: targets and 1-3 key parts
CASES = [
    (_query("COUNT(*), MAX(A.v)", "A+", ANY), None, "TypeGrainedAggregator"),
    (
        _query("COUNT(*), SUM(A.v), MIN(B.v), COUNT(C)", "SEQ(A+, B, C+)", ANY, "g, h"),
        None,
        "TypeGrainedAggregator",
    ),
    (
        _query("COUNT(*), SUM(A.v), MAX(B.v)", "SEQ(A+, B)", ANY, where="A.v < NEXT(A).v"),
        None,
        "MixedGrainedAggregator",
    ),
    (
        _query("COUNT(*), COUNT(A), MIN(A.v)", "A+", ANY, "g, h, k", "A.v < NEXT(A).v"),
        None,
        "EventGrainedAggregator",
    ),
    (
        _query("COUNT(*), SUM(A.v)", "SEQ(A+, B)", "contiguous", "g, h"),
        None,
        "PatternGrainedAggregator",
    ),
    (
        _query("COUNT(*), MAX(B.v)", "SEQ(A+, NOT C, B)", "skip-till-next-match"),
        None,
        "NegationPatternGrainedAggregator",
    ),
    (
        _query("COUNT(*), SUM(A.v), MAX(B.v)", "SEQ(A+, NOT C, B)", ANY, "g, h"),
        None,
        "NegationTypeGrainedAggregator",
    ),
    (
        _query("COUNT(*), AVG(A.v)", "SEQ(A+, NOT C, B)", ANY),
        "event",
        "NegationEventGrainedAggregator",
    ),
]


def _events():
    rng = random.Random(5)
    return [
        Event(
            rng.choice("AAABBC"),
            round(index * 0.1, 2),
            {
                "g": rng.choice("xy"),
                "h": rng.choice((1, 2)),
                "k": "z",
                "v": rng.choice((rng.randint(1, 50), rng.uniform(0.0, 9.0))),
            },
            sequence=index,
        )
        for index in range(90)
    ]


def _build(case):
    text, granularity, expected = case
    runtime = StreamingRuntime(lateness=0.0)
    runtime.register(text, name="q", granularity=granularity)
    runtime.process_batch(_events())
    executor = runtime._queries[0].executor
    entries = list(executor.open_aggregators())
    assert type(entries[0][2]).__name__ == expected
    return runtime, executor.plan, entries


BUILT = [_build(case) for case in CASES]


#: the cases whose plans render entries inline; the others decline them all
INLINE = [i for i, case in enumerate(CASES) if case[2] == "TypeGrainedAggregator"]


def test_every_registered_class_is_drawn():
    assert {case[2] for case in CASES} == set(_HANDLERS)


#: numbers the generated text renders inline
RENDERED = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, -0.0, 0.0, 2**64 + 1]),
)
TEXT = st.one_of(
    st.text(max_size=4),
    st.sampled_from(['é', 'a"b', "back\\slash", "line\nbreak", "\x00", "\u2028", "😀"]),
)
#: values it leaves to the reference in a slot or a count; an attribute
#: dict holding them goes through the one encoder either way
ODD = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), True, False]),
    st.sampled_from([Level.LOW, Level.HIGH, Decimal("1.5")]),
    TEXT,
)
ATTRIBUTES = st.one_of(
    RENDERED,
    TEXT,
    st.none(),
    st.booleans(),
    st.sampled_from([Level.HIGH, float("nan"), float("-inf")]),
)
KEY_PARTS = st.one_of(TEXT, st.integers(), st.floats(), st.none(), st.just(-0.0))


def _clone(aggregator):
    copy = create_aggregator(aggregator.plan)
    restore_aggregator_state(copy, snapshot_aggregator(aggregator))
    return copy


def _accumulators(aggregator):
    """Every trend accumulator the aggregator holds."""
    for name in ("_final", "_last_cell"):
        if hasattr(aggregator, name):
            yield getattr(aggregator, name)
    for name in ("_cells", "_type_cells"):
        yield from getattr(aggregator, name, {}).values()
    for nodes in getattr(aggregator, "_event_cells", {}).values():
        for _, cell in nodes:
            yield cell


def _stored_events(aggregator):
    last = getattr(aggregator, "_last_event", None)
    if last is not None:
        yield last
    for nodes in getattr(aggregator, "_event_cells", {}).values():
        for event, _ in nodes:
            yield event


def _mutate(draw, aggregator):
    """Overwrite some of the aggregator's values with drawn ones.

    Most draws stay renderable, so that the generated text and not only its
    fallback is checked; one in four allows the odd values too.
    """
    numbers = st.one_of(RENDERED, ODD) if draw(st.integers(0, 3)) == 0 else RENDERED
    if draw(st.booleans()):
        aggregator.events_processed = draw(numbers)
    for cell in _accumulators(aggregator):
        if draw(st.integers(0, 3)) == 0:
            cell.trend_count = draw(numbers)
        for index in range(len(cell.slots)):
            if draw(st.integers(0, 7)) == 0:
                # min and max (offsets 2 and 3) may also be None
                none = st.none() if index % 4 >= 2 else st.nothing()
                cell.slots[index] = draw(st.one_of(numbers, none))
    for event in _stored_events(aggregator):
        if draw(st.integers(0, 3)) == 0:
            event.attributes[draw(TEXT)] = draw(ATTRIBUTES)
            if draw(st.integers(0, 15)) == 0:
                event.attributes["d"] = Decimal("2.5")
    for key in getattr(aggregator, "_cutoffs", {}):
        if draw(st.booleans()):
            aggregator._cutoffs[key] = draw(numbers)
    if hasattr(aggregator, "_last_variable") and draw(st.integers(0, 3)) == 0:
        aggregator._last_variable = draw(st.one_of(st.none(), TEXT, numbers))


def _outcome(function, *arguments):
    """The text ``function`` returns, or the class of the error it raises."""
    try:
        return function(*arguments)
    except (TypeError, ValueError) as error:
        return type(error)


@st.composite
def _states(draw):
    # half the draws render inline, the rest cover every class's fallback
    index = draw(st.one_of(st.sampled_from(INLINE), st.integers(0, len(BUILT) - 1)))
    _, plan, entries = BUILT[index]
    window_id, key, aggregator = draw(st.sampled_from(entries))
    aggregator = _clone(aggregator)
    _mutate(draw, aggregator)
    if draw(st.booleans()):
        key = tuple(draw(KEY_PARTS) for _ in key)
    return plan, window_id, key, aggregator


class TestGeneratedEncoder:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(state=_states())
    def test_the_generated_text_is_the_reference_text(self, state):
        plan, window_id, key, aggregator = state
        render = entry_encoder(plan)
        reference = _outcome(reference_entry_text, window_id, key, aggregator)
        generated = _outcome(render, window_id, key, aggregator)
        if isinstance(generated, str):
            assert generated == reference
        entry = encode_entry(render, window_id, key, aggregator)
        if isinstance(reference, str):
            assert entry == EncodedEntry(window_id, list(key), reference)
        else:
            # refused by both: the entry stays the reference's tree
            assert generated is None or generated is reference
            assert entry == [window_id, list(key), snapshot_aggregator(aggregator)]

    @pytest.mark.parametrize("index", range(len(CASES)), ids=[c[2] for c in CASES])
    def test_live_type_grained_states_are_rendered_inline(self, index):
        _, plan, entries = BUILT[index]
        render = entry_encoder(plan)
        inline = index in INLINE
        for window_id, key, aggregator in entries:
            text = render(window_id, key, aggregator)
            if inline:
                assert text == reference_entry_text(window_id, key, aggregator)
            else:
                assert text is None

    def test_the_source_is_registered_with_linecache(self):
        _, plan, _ = BUILT[0]
        filename = entry_encoder(plan).__code__.co_filename
        assert filename.startswith("<checkpoint ")
        assert "def render(window_id, key, aggregator):" in "".join(
            linecache.getlines(filename)
        )

    def test_a_count_past_the_digit_limit_fails_the_save_naming_the_query(
        self, tmp_path
    ):
        runtime, plan, entries = _build(CASES[0])
        window_id, key, aggregator = entries[0]
        # 5,001 digits, past CPython's default 4,300-digit int-to-str limit
        aggregator._cells["A"].trend_count = 10**5000
        with pytest.raises(ValueError):
            entry_encoder(plan)(window_id, key, aggregator)
        with pytest.raises(ValueError):
            reference_entry_text(window_id, key, aggregator)
        store = CheckpointStore(tmp_path)
        for snapshot in (runtime._checkpoint_for_save(), runtime.checkpoint()):
            with pytest.raises(CheckpointError, match="query 'q'"):
                store.save(snapshot)
