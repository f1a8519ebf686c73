"""Unit tests for the event and stream model."""

import pytest

from repro.errors import StreamOrderError
from repro.events import (
    Event,
    EventSchema,
    EventStream,
    attribute_names,
    merge_streams,
    sort_events,
    validate_order,
)


class TestEvent:
    def test_basic_construction(self):
        event = Event("Stock", 12.5, {"price": 10.0, "company": 3})
        assert event.event_type == "Stock"
        assert event.time == 12.5
        assert event["price"] == 10.0
        assert event.get("company") == 3

    def test_missing_attribute_get_returns_default(self):
        event = Event("Stock", 1.0)
        assert event.get("price") is None
        assert event.get("price", 42) == 42
        assert not event.has("price")

    def test_missing_attribute_subscript_raises(self):
        event = Event("Stock", 1.0)
        with pytest.raises(KeyError):
            event["price"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event("Stock", -1.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ValueError):
            Event("Stock", time)

    def test_pickle_roundtrip_preserves_immutability(self):
        # events travel to sharded-runtime workers over queues; the default
        # slot unpickling would trip the immutability guard
        import pickle

        event = Event("Stock", 2.5, {"company": "IBM", "price": 10.0}, sequence=7)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert clone.sequence == 7
        with pytest.raises(AttributeError):
            clone.time = 3.0

    def test_immutability(self):
        event = Event("Stock", 1.0, {"price": 10})
        with pytest.raises(AttributeError):
            event.time = 2.0

    def test_attributes_copied_from_caller(self):
        attributes = {"price": 10}
        event = Event("Stock", 1.0, attributes)
        attributes["price"] = 99
        assert event["price"] == 10

    def test_order_key_breaks_ties_by_sequence(self):
        first = Event("A", 5.0, sequence=1)
        second = Event("A", 5.0, sequence=2)
        assert first.is_before(second)
        assert not second.is_before(first)

    def test_equality_and_hash(self):
        left = Event("A", 1.0, {"x": 1}, sequence=0)
        right = Event("A", 1.0, {"x": 1}, sequence=0)
        different = Event("A", 1.0, {"x": 2}, sequence=0)
        assert left == right
        assert hash(left) == hash(right)
        assert left != different

    def test_replace_creates_modified_copy(self):
        event = Event("A", 1.0, {"x": 1})
        changed = event.replace(time=2.0, attributes={"y": 5})
        assert changed.time == 2.0
        assert changed["x"] == 1
        assert changed["y"] == 5
        assert event.time == 1.0
        assert not event.has("y")

    def test_repr_contains_type_and_time(self):
        event = Event("Stock", 3.0, {"price": 1})
        assert "Stock" in repr(event)
        assert "3" in repr(event)


class TestEventSchema:
    def test_create_and_validate(self):
        schema = EventSchema("Stock", ["price", "company"])
        event = schema.create(1.0, price=10, company=2)
        assert schema.validate(event)
        assert schema.has_attribute("price")
        assert not schema.has_attribute("volume")

    def test_create_rejects_unknown_attribute(self):
        schema = EventSchema("Stock", ["price"])
        with pytest.raises(ValueError):
            schema.create(1.0, volume=10)

    def test_validate_rejects_wrong_type_or_missing_attribute(self):
        schema = EventSchema("Stock", ["price"])
        assert not schema.validate(Event("Other", 1.0, {"price": 1}))
        assert not schema.validate(Event("Stock", 1.0, {}))

    def test_equality(self):
        assert EventSchema("A", ["x"]) == EventSchema("A", ["x"])
        assert EventSchema("A", ["x"]) != EventSchema("A", ["y"])


class TestStreamHelpers:
    def test_sort_events_orders_and_renumbers(self):
        events = [Event("A", 3.0), Event("B", 1.0), Event("C", 2.0)]
        ordered = sort_events(events)
        assert [e.time for e in ordered] == [1.0, 2.0, 3.0]
        assert [e.sequence for e in ordered] == [0, 1, 2]

    def test_sort_events_is_stable_for_equal_times(self):
        events = [Event("A", 1.0, {"i": 0}), Event("B", 1.0, {"i": 1})]
        ordered = sort_events(events)
        assert [e["i"] for e in ordered] == [0, 1]

    def test_validate_order_accepts_sorted(self):
        validate_order(sort_events([Event("A", 1.0), Event("B", 2.0)]))

    def test_validate_order_rejects_unsorted(self):
        with pytest.raises(StreamOrderError):
            validate_order([Event("A", 2.0, sequence=0), Event("B", 1.0, sequence=1)])

    def test_merge_streams(self):
        left = sort_events([Event("A", 1.0), Event("A", 3.0)])
        right = sort_events([Event("B", 2.0), Event("B", 4.0)])
        merged = merge_streams(left, right)
        assert [e.time for e in merged] == [1.0, 2.0, 3.0, 4.0]

    def test_merge_streams_renumbers_consecutively(self):
        left = sort_events([Event("A", 1.0), Event("A", 2.0), Event("A", 5.0)])
        right = sort_events([Event("B", 1.5), Event("B", 4.0)])
        merged = merge_streams(left, right)
        assert [e.sequence for e in merged] == list(range(5))
        assert merged == sort_events(left + right)

    def test_merge_streams_rejects_disordered_input(self):
        with pytest.raises(StreamOrderError):
            merge_streams(
                [Event("A", 5.0, sequence=0), Event("A", 1.0, sequence=1)],
                [Event("B", 3.0, sequence=0)],
            )

    def test_merge_streams_rejects_disordered_sequences_at_equal_times(self):
        with pytest.raises(StreamOrderError):
            merge_streams([Event("A", 1.0, sequence=5), Event("A", 1.0, sequence=2)])

    def test_merge_streams_keeps_tie_order_by_sequence(self):
        left = [Event("A", 1.0, sequence=0), Event("A", 2.0, sequence=2)]
        right = [Event("B", 1.0, sequence=1), Event("B", 2.0, sequence=3)]
        merged = merge_streams(left, right)
        assert [e.event_type for e in merged] == ["A", "B", "A", "B"]

    def test_attribute_names_union(self):
        events = [Event("A", 1.0, {"x": 1}), Event("B", 2.0, {"y": 2})]
        assert attribute_names(events) == {"x", "y"}


class TestEventStream:
    def test_sorts_input_and_exposes_sequence_protocol(self):
        stream = EventStream([Event("A", 2.0), Event("B", 1.0)])
        assert len(stream) == 2
        assert stream[0].event_type == "B"
        assert [e.time for e in stream] == [1.0, 2.0]

    def test_duration_and_types(self):
        stream = EventStream([Event("A", 1.0), Event("B", 6.0)])
        assert stream.duration == 5.0
        assert stream.event_types() == {"A", "B"}

    def test_duration_of_empty_stream_is_zero(self):
        assert EventStream([]).duration == 0.0

    def test_distinct_values(self):
        stream = EventStream(
            [Event("A", 1.0, {"g": 1}), Event("A", 2.0, {"g": 2}), Event("B", 3.0)]
        )
        assert stream.distinct_values("g") == {1, 2}

    def test_filter_of_types_take_within(self):
        stream = EventStream(
            [Event("A", 1.0), Event("B", 2.0), Event("A", 3.0), Event("C", 4.0)]
        )
        assert len(stream.of_types("A")) == 2
        assert len(stream.take(3)) == 3
        assert [e.time for e in stream.within(2.0, 4.0)] == [2.0, 3.0]
        assert len(stream.filter(lambda e: e.event_type != "C")) == 3
