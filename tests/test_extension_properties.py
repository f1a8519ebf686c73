"""Property-based tests for the features added on top of the core algorithms.

Complements ``test_correctness_properties.py`` (which checks COGRA and the
baselines against the enumeration oracle) with randomized checks of

* forced granularities: every correct granularity yields the oracle results,
* negated sub-patterns: the incremental invalidation rules agree with the
  explicit "enumerate positive trends, then filter" reference semantics,
* sharded execution: identical to sequential execution, also when group
  keys mix equal ``int``, ``float`` and ``bool`` forms,
* CSV round-trips: persisting and re-loading a stream never changes query
  results, and
* accumulator algebra: merge is commutative/associative with ``zero`` as the
  neutral element, which is what makes incremental maintenance possible.
"""

from hypothesis import given, settings, strategies as st

from repro.analyzer.granularity import allowed_granularities
from repro.analyzer.plan import plan_query
from repro.baselines.trend_enumeration import TrendOracle, enumerate_trends
from repro.core.aggregate_state import TrendAccumulator
from repro.core.engine import CograEngine
from repro.datasets.io import read_stream_csv, write_stream_csv
from repro.events.event import Event
from repro.extensions.negation import (
    create_negation_aggregator,
    filter_trends_with_negations,
    plan_negated_query,
    positive_query,
)
from repro.query.aggregates import avg, count_star, max_of, min_of, sum_of
from repro.query.ast import KleenePlus, Negation, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.predicates import comparison
from repro.query.windows import WindowSpec
from repro.streaming.runtime import group_results
from repro.streaming.sharded import ShardedRuntime

from helpers import assert_results_equal

MAX_EXAMPLES = 30

event_types = st.sampled_from("ABCZ")
small_values = st.integers(min_value=0, max_value=5)


@st.composite
def streams(draw, max_events=9, types=event_types, groups=st.integers(0, 1)):
    """A small random stream with integer attribute ``x`` and group ``g``."""
    count = draw(st.integers(min_value=0, max_value=max_events))
    events = []
    for index in range(count):
        events.append(
            Event(
                draw(types),
                float(index + 1),
                {"x": draw(small_values), "g": draw(groups)},
                sequence=index,
            )
        )
    return events


def build_query(pattern, semantics="skip-till-any-match", predicates=(), aggregates=None,
                window=None, group_by=()):
    builder = QueryBuilder().pattern(pattern).semantics(semantics).window(window)
    for spec in aggregates or [count_star()]:
        builder.aggregate(spec)
    for predicate in predicates:
        builder.where(predicate)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


FIGURE2 = KleenePlus(sequence(kleene_plus("A"), atom("B")))
NEGATED = KleenePlus(sequence(kleene_plus("A"), Negation(atom("C")), atom("B")))


class TestForcedGranularityProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_every_correct_granularity_matches_the_oracle(self, events):
        query = build_query(
            FIGURE2,
            aggregates=[count_star(), sum_of("A", "x"), min_of("B", "x")],
        )
        plan = plan_query(query)
        oracle = TrendOracle(query).run(events)
        for granularity in allowed_granularities(plan.semantics, plan.classification):
            engine = CograEngine(query, granularity=granularity)
            assert_results_equal(engine.run(events), oracle)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_granularities_agree_with_adjacent_predicates(self, events):
        query = build_query(
            FIGURE2,
            predicates=[comparison("A", "x", "<=", "A")],
            aggregates=[count_star(), max_of("A", "x")],
        )
        plan = plan_query(query)
        reference = None
        for granularity in allowed_granularities(plan.semantics, plan.classification):
            results = CograEngine(query, granularity=granularity).run(events)
            if reference is None:
                reference = results
            else:
                assert_results_equal(reference, results)


class TestNegationProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_type_grained_negation_matches_filtered_enumeration(self, events):
        query = build_query(NEGATED)
        plan, analysis = plan_negated_query(query)
        aggregator = create_negation_aggregator(plan, analysis.components)
        for event in events:
            aggregator.process(event)
        trends = enumerate_trends(positive_query(query, analysis), events)
        kept = filter_trends_with_negations(analysis.components, events, trends)
        assert aggregator.final_accumulator().trend_count == len(kept)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_event_grained_negation_matches_filtered_enumeration(self, events):
        query = build_query(NEGATED, predicates=[comparison("A", "x", "<=", "A")])
        plan, analysis = plan_negated_query(query)
        aggregator = create_negation_aggregator(plan, analysis.components)
        for event in events:
            aggregator.process(event)
        trends = enumerate_trends(positive_query(query, analysis), events)
        kept = filter_trends_with_negations(analysis.components, events, trends)
        assert aggregator.final_accumulator().trend_count == len(kept)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_negation_never_increases_the_trend_count(self, events):
        plain = build_query(FIGURE2)
        negated = build_query(NEGATED)
        plain_count = sum(r.trend_count for r in CograEngine(plain).run(events))
        negated_count = sum(r.trend_count for r in CograEngine(negated).run(events))
        assert negated_count <= plain_count

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8, types=st.sampled_from("ABZ")))
    def test_negation_is_vacuous_without_negated_events(self, events):
        plain = build_query(FIGURE2)
        negated = build_query(NEGATED)
        assert_results_equal(CograEngine(plain).run(events), CograEngine(negated).run(events))


class TestShardedProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        events=streams(
            max_events=12, groups=st.sampled_from([0, 0.0, False, 1, 1.0, True, 2])
        ),
        workers=st.integers(min_value=1, max_value=4),
    )
    def test_sharded_equals_sequential_with_grouping(self, events, workers):
        # group keys mix int, float and bool forms the executor groups by ==
        query = build_query(
            FIGURE2,
            aggregates=[count_star(), sum_of("A", "x")],
            group_by=("g",),
            window=WindowSpec(6.0, 3.0),
        )
        sequential = CograEngine(query).run(events)
        runtime = ShardedRuntime(workers=workers, lateness=0.0)
        runtime.register(query, name="q")
        assert_results_equal(sequential, group_results(runtime.run(events)))


class TestCsvRoundtripProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=12))
    def test_roundtrip_preserves_query_results(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "stream.csv"
        write_stream_csv(events, path)
        restored = read_stream_csv(path)
        query = build_query(
            FIGURE2, aggregates=[count_star(), avg("A", "x")], group_by=("g",)
        )
        assert_results_equal(CograEngine(query).run(events), CograEngine(query).run(restored))


class TestAccumulatorAlgebra:
    targets = (("A", "x"), ("B", None))

    def _random_accumulator(self, draw_values):
        accumulator = TrendAccumulator.zero(self.targets)
        for variable, value, start in draw_values:
            event = Event("A" if variable == "A" else "B", 1.0, {"x": value})
            if start:
                accumulator.merge(TrendAccumulator.singleton(event, variable, self.targets))
            else:
                accumulator = accumulator.extended(event, variable)
        return accumulator

    contributions = st.lists(
        st.tuples(st.sampled_from("AB"), small_values, st.booleans()), max_size=6
    )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(left=contributions, right=contributions)
    def test_merge_is_commutative(self, left, right):
        a = self._random_accumulator(left)
        b = self._random_accumulator(right)
        assert repr(a.merged(b)) == repr(b.merged(a))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(left=contributions, right=contributions, third=contributions)
    def test_merge_is_associative(self, left, right, third):
        a, b, c = (self._random_accumulator(v) for v in (left, right, third))
        assert repr(a.merged(b).merged(c)) == repr(a.merged(b.merged(c)))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(values=contributions)
    def test_zero_is_neutral_for_merge(self, values):
        accumulator = self._random_accumulator(values)
        zero = TrendAccumulator.zero(self.targets)
        assert repr(accumulator.merged(zero)) == repr(accumulator)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(values=contributions)
    def test_extending_an_empty_accumulator_stays_empty(self, values):
        zero = TrendAccumulator.zero(self.targets)
        extended = zero.extended(Event("A", 1.0, {"x": 1}), "A")
        assert extended.is_empty
