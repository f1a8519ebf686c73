"""Unit tests for the semantics enum and the sliding window specification."""

import math
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.executor import QueryExecutor
from repro.errors import InvalidQueryError, QueryParseError
from repro.events.event import Event
from repro.query.parser import parse_query
from repro.query.semantics import Semantics
from repro.query.windows import CountWindowSpec, WindowSpec, duration_to_seconds


class TestSemantics:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("skip-till-any-match", Semantics.SKIP_TILL_ANY_MATCH),
            ("SKIP_TILL_ANY_MATCH", Semantics.SKIP_TILL_ANY_MATCH),
            ("any", Semantics.SKIP_TILL_ANY_MATCH),
            ("skip till next match", Semantics.SKIP_TILL_NEXT_MATCH),
            ("next", Semantics.SKIP_TILL_NEXT_MATCH),
            ("contiguous", Semantics.CONTIGUOUS),
            ("CONT", Semantics.CONTIGUOUS),
        ],
    )
    def test_parse_accepts_paper_spellings(self, text, expected):
        assert Semantics.parse(text) is expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Semantics.parse("sometimes")

    def test_short_names(self):
        assert Semantics.SKIP_TILL_ANY_MATCH.short_name == "ANY"
        assert Semantics.SKIP_TILL_NEXT_MATCH.short_name == "NEXT"
        assert Semantics.CONTIGUOUS.short_name == "CONT"

    def test_flags(self):
        assert Semantics.SKIP_TILL_ANY_MATCH.is_any
        assert Semantics.SKIP_TILL_NEXT_MATCH.is_next
        assert Semantics.CONTIGUOUS.is_contiguous

    def test_containment_relation_of_figure_2(self):
        cont, nxt, any_ = (
            Semantics.CONTIGUOUS,
            Semantics.SKIP_TILL_NEXT_MATCH,
            Semantics.SKIP_TILL_ANY_MATCH,
        )
        assert cont.is_at_most_as_flexible_as(nxt)
        assert nxt.is_at_most_as_flexible_as(any_)
        assert cont.is_at_most_as_flexible_as(any_)
        assert not any_.is_at_most_as_flexible_as(cont)
        assert any_.is_at_most_as_flexible_as(any_)


class TestWindowSpec:
    def test_window_intervals(self):
        window = WindowSpec(600.0, 30.0)
        assert window.window_interval(0) == (0.0, 600.0)
        assert window.window_interval(2) == (60.0, 660.0)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(InvalidQueryError):
            WindowSpec(0.0)
        with pytest.raises(InvalidQueryError):
            WindowSpec(10.0, -1.0)

    def test_windows_of_overlapping(self):
        window = WindowSpec(10.0, 5.0)
        assert window.windows_of(0.0) == [0]
        assert window.windows_of(7.0) == [0, 1]
        assert window.windows_of(12.0) == [1, 2]

    def test_windows_of_tumbling(self):
        window = WindowSpec(10.0)
        assert window.is_tumbling
        assert window.windows_of(3.0) == [0]
        assert window.windows_of(10.0) == [1]

    def test_slide_defaults_to_size(self):
        assert WindowSpec(10.0).slide == 10.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_specs(self, bad):
        for arguments in ((bad,), (10.0, bad), (10.0, 5.0, bad)):
            with pytest.raises(InvalidQueryError):
                WindowSpec(*arguments)

    def test_a_size_no_float_holds_is_a_typed_parse_time_error(self):
        with pytest.raises(InvalidQueryError):
            parse_query("RETURN COUNT(*) PATTERN A+ WITHIN 1e999 seconds")
        with pytest.raises(InvalidQueryError):
            parse_query(
                "RETURN COUNT(*) PATTERN A+ WITHIN 1e308 seconds SLIDE 1e-308 seconds"
            )

    def test_negative_time_has_no_window(self):
        assert WindowSpec(10.0, 5.0).windows_of(-1.0) == []

    def test_of_constructor_with_units(self):
        window = WindowSpec.of(10, "minutes", 30, "seconds")
        assert window.size == 600.0
        assert window.slide == 30.0

    def test_duration_units(self):
        assert duration_to_seconds(2, "hours") == 7200.0
        assert duration_to_seconds(1.5, "min") == 90.0
        with pytest.raises(InvalidQueryError):
            duration_to_seconds(1, "fortnights")

    def test_millisecond_units(self):
        assert duration_to_seconds(500, "ms") == 0.5
        assert duration_to_seconds(1, "millisecond") == 0.001
        assert duration_to_seconds(1500, "milliseconds") == 1.5

    def test_sub_second_window_parses_and_round_trips(self):
        from repro.query.parser import parse_query

        query = parse_query(
            "RETURN COUNT(*) PATTERN A+ WITHIN 1500 ms SLIDE 500 milliseconds"
        )
        assert query.window == WindowSpec(1.5, 0.5)
        # describe() renders the window in seconds; re-parsing it must yield
        # the same window (round trip through the textual form)
        reparsed = parse_query(query.describe())
        assert reparsed.window == query.window

    def test_tiny_window_round_trips_through_scientific_notation(self):
        from repro.query.parser import parse_query

        # describe() renders 5e-05 seconds; the parser must accept it back
        query = parse_query(
            "RETURN COUNT(*) PATTERN A+ WITHIN 0.05 ms SLIDE 0.01 ms"
        )
        assert query.window == WindowSpec(5e-05, 1e-05)
        reparsed = parse_query(query.describe())
        assert reparsed.window == query.window

    def test_equality_and_hash(self):
        assert WindowSpec(10, 5) == WindowSpec(10, 5)
        assert WindowSpec(10, 5) != WindowSpec(10, 2)
        assert len({WindowSpec(10, 5), WindowSpec(10, 5)}) == 1

    @pytest.mark.parametrize(
        "size,slide,time,expected",
        [
            # each was in no window, or in two, before the grid was one
            (0.1, 0.1, 4.3, [43]),
            (0.1, 0.1, 1.7, [16]),
            (0.25, 0.3, 157.14999999999998, [523]),
            (0.9, 0.7, 793.9999999999999, [1134]),
            (0.9, 0.7, 794.4999999999999, [1134]),
        ],
    )
    def test_decimal_edges_that_used_to_be_misplaced(self, size, slide, time, expected):
        window = WindowSpec(size, slide)
        assert window.windows_of(time) == expected
        for window_id in range(expected[0] - 2, expected[-1] + 3):
            start, end = window.window_interval(window_id)
            assert (start <= time < end) == (window_id in expected)
        assert window.next_boundary(time) > time

    def test_tumbling_decimal_windows_partition_time(self):
        window = WindowSpec(0.1)
        assert window.window_interval(17) == (1.7000000000000002, 1.8)
        assert window.window_end(16) == window.window_start(17)
        for size, slide, each in ((0.1, 0.1, 1), (0.3, 0.1, 3)):
            window = WindowSpec(size, slide)
            assert all(
                len(window.windows_of(tick / 10)) == each for tick in range(30, 20000)
            )


#: one to three decimal digits, the way WITHIN / SLIDE literals are written
decimals = st.builds(
    lambda digits, places: Decimal(digits).scaleb(-places),
    st.integers(min_value=1, max_value=999),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def grids(draw):
    """``(window, m)``: a decimal spec; ``m`` slides per window if aligned, else 0."""
    slide = draw(decimals)
    origin = draw(st.one_of(st.just(Decimal(0)), decimals))
    slides = draw(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 12]))
    if slides:
        size = slide * slides
    else:
        size = draw(decimals)  # unaligned, or leaving gaps (slide > size)
        assume(size / slide <= 40)
        if size % slide == 0:
            slides = int(size / slide)
    return WindowSpec(float(size), float(slide), float(origin)), slides


class TestTheGrid:
    """Placement, step boundary and expiry all read one grid (Definition 6)."""

    @settings(max_examples=300, deadline=None)
    @given(
        grid=grids(),
        probe=st.one_of(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=0, max_value=10**9),
        ),
        at_end=st.booleans(),
        nudge=st.sampled_from(["on", "one float below", "one float above", "between"]),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_membership_count_and_boundary_agree_with_the_edges(
        self, grid, probe, at_end, nudge, fraction
    ):
        window, slides = grid
        edge = window.window_end(probe) if at_end else window.window_start(probe)
        time = {
            "on": edge,
            "one float below": math.nextafter(edge, -math.inf),
            "one float above": math.nextafter(edge, math.inf),
            "between": edge + fraction * window.slide,
        }[nudge]
        assume(time >= 0.0)
        reach = int(window.size / window.slide) + 3
        near = range(max(probe - reach, 0), probe + 2 * reach)

        # I1: exactly the windows whose interval holds the time
        windows = window.windows_of(time)
        assert windows == [
            k for k in near if window.window_start(k) <= time < window.window_end(k)
        ]

        # I2: a WITHIN of m SLIDEs ends on the start grid, m windows per time
        if slides:
            assert window.window_end(probe) == window.window_start(probe + slides)
            if time >= window.window_start(slides):
                assert len(windows) == slides

        # I3: the next boundary is the smallest edge above, nothing changes before
        bound = window.next_boundary(time)
        edges = [window.window_start(k) for k in near]
        edges += [window.window_end(k) for k in near]
        assert bound == min(edge for edge in edges if edge > time)
        for later in (time + (bound - time) / 2, math.nextafter(bound, -math.inf)):
            if time <= later < bound:
                assert window.windows_of(later) == windows
        assert window.windows_of(bound) != windows

    @pytest.mark.parametrize("time", [2.0**53, 1e16, 1e18, 1e22, 1e300, 1.7e308])
    @pytest.mark.parametrize("size,slide", [(7.0, 0.001), (7.0, 3.0), (0.1, 0.1)])
    def test_beyond_float_resolution_membership_still_holds(self, time, size, slide):
        """Where many ids share an edge: I1 and a boundary past the time, no more."""
        window = WindowSpec(size, slide)
        windows = window.windows_of(time)
        assert all(
            window.window_start(k) <= time < window.window_end(k) for k in windows
        )
        if windows:
            assert windows == list(range(windows[0], windows[-1] + 1))
            before, after = windows[0] - 1, windows[-1] + 1
            assert before < 0 or window.window_end(before) <= time
            assert window.window_start(after) > time
        else:
            guess = int(time / slide)
            assert not any(
                window.window_start(k) <= time < window.window_end(k)
                for k in range(guess - 3, guess + 4)
            )
        assert window.next_boundary(time) > time


class TestCountWindowSpec:
    def test_basic_arithmetic_is_in_ordinals(self):
        window = CountWindowSpec(10)
        assert window.is_count_based
        assert window.is_tumbling
        assert window.window_interval(0) == (0.0, 10.0)
        assert window.window_interval(3) == (30.0, 40.0)
        assert window.window_of_ordinal(0) == 0
        assert window.window_of_ordinal(9) == 0
        assert window.window_of_ordinal(10) == 1

    def test_rejects_non_positive_and_fractional_counts(self):
        with pytest.raises(InvalidQueryError):
            CountWindowSpec(0)
        with pytest.raises(InvalidQueryError):
            CountWindowSpec(-3)
        with pytest.raises(InvalidQueryError):
            CountWindowSpec(2.5)

    @pytest.mark.parametrize("bad", [True, float("nan"), float("inf")])
    def test_rejects_bools_and_non_finite_counts(self, bad):
        with pytest.raises(InvalidQueryError):
            CountWindowSpec(bad)

    def test_timestamp_placement_raises_loudly(self):
        window = CountWindowSpec(5)
        with pytest.raises(InvalidQueryError):
            window.windows_of(12.0)

    def test_equality_never_crosses_window_kinds(self):
        assert CountWindowSpec(5) == CountWindowSpec(5)
        assert CountWindowSpec(5) != CountWindowSpec(6)
        assert CountWindowSpec(5) != WindowSpec(5.0)
        assert WindowSpec(5.0) != CountWindowSpec(5)

    def test_parser_accepts_events_unit_and_describe_round_trips(self):
        query = parse_query(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 7 events"
        )
        assert isinstance(query.window, CountWindowSpec)
        assert query.window.count == 7
        assert "WITHIN    7 events" in query.describe()
        reparsed = parse_query(query.describe())
        assert reparsed.window == query.window

    def test_parser_rejects_slide_on_count_windows(self):
        with pytest.raises(QueryParseError):
            parse_query(
                "RETURN COUNT(*) PATTERN SEQ(A, B) SEMANTICS any "
                "WITHIN 7 events SLIDE 3 events"
            )

    def test_every_nth_event_closes_the_window(self):
        query = parse_query(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 3 events"
        )
        executor = QueryExecutor(query)
        events = [
            Event("A", 1.0, {"g": "x"}),
            Event("B", 2.0, {"g": "x"}),
            Event("A", 3.0, {"g": "x"}),  # closes nothing: ordinal 2, window 0
            Event("A", 4.0, {"g": "x"}),  # ordinal 3 opens window 1, closes 0
            Event("B", 5.0, {"g": "x"}),
        ]
        collected = []
        for event in events:
            collected.extend(executor.process(event))
        assert [result.window_id for result in collected] == [0]
        assert collected[0].window_start == 0.0
        assert collected[0].window_end == 3.0
        assert collected[0]["COUNT(*)"] >= 1
        tail = executor.flush()
        assert [result.window_id for result in tail] == [1]

    @given(
        count=st.integers(min_value=1, max_value=7),
        types=st.lists(st.sampled_from("ABC"), min_size=1, max_size=40),
    )
    def test_streaming_matches_batch_and_checkpoint_split(self, count, types):
        """One window per `count` events, identical across drive modes.

        ``C`` is no type of the pattern: it still advances the ordinal, in
        the batch executor and in the runtime alike.
        """
        query_text = (
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
            f"SEMANTICS skip-till-any-match GROUP-BY g WITHIN {count} events"
        )
        events = [
            Event(event_type, float(index + 1), {"g": "xy"[index % 2]})
            for index, event_type in enumerate(types)
        ]

        def run_split(cut):
            from repro.streaming import StreamingRuntime

            first = StreamingRuntime()
            first.register(query_text, name="cw")
            records = []
            for event in events[:cut]:
                records.extend(first.process(event))
            state = first.checkpoint()
            second = StreamingRuntime()
            second.register(query_text, name="cw")
            second.restore(state)
            for event in events[cut:]:
                records.extend(second.process(event))
            records.extend(second.flush())
            return [record.as_dict() for record in records]

        executor = QueryExecutor(parse_query(query_text))
        batch = executor.run(events)
        whole = run_split(len(events))
        halves = run_split(len(events) // 2)
        assert whole == halves
        assert [result.as_dict() for result in batch] == [
            {key: row[key] for key in row if key not in ("query", "watermark")}
            for row in whole
        ]
