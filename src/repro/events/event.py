"""Primitive events and their schemas (Section 2.1 of the paper).

An :class:`Event` is an immutable record carrying

* ``time`` -- an application timestamp (a non-negative finite number; the paper
  models time as a linearly ordered subset of the rationals),
* ``event_type`` -- the name of the event type the event belongs to,
* ``attributes`` -- a mapping from attribute names to values, and
* ``sequence`` -- a monotonically increasing arrival index used to break
  timestamp ties deterministically.

Events are deliberately lightweight: the hot loops of every aggregator and
baseline touch millions of them, so the class uses ``__slots__`` and keeps
attribute access on the critical path to a single dictionary lookup.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

_INFINITY = float("inf")


class Event:
    """A single primitive event on a stream.

    Parameters
    ----------
    event_type:
        Name of the event type, e.g. ``"Stock"`` or ``"Measurement"``.
    time:
        Application timestamp assigned by the event source (seconds).
    attributes:
        Mapping of attribute names to values.  The mapping is copied so the
        event stays immutable even if the caller mutates its dictionary.
    sequence:
        Arrival index used to order events with equal timestamps.  When
        omitted it defaults to ``0``; :func:`repro.events.stream.sort_events`
        assigns consecutive indices.
    """

    __slots__ = ("event_type", "time", "attributes", "sequence")

    def __init__(
        self,
        event_type: str,
        time: float,
        attributes: Optional[Mapping[str, Any]] = None,
        sequence: int = 0,
    ):
        if not 0 <= time < _INFINITY:  # rejects NaN too
            raise ValueError(f"event time must be non-negative, finite: {time!r}")
        object.__setattr__(self, "event_type", event_type)
        object.__setattr__(self, "time", float(time))
        object.__setattr__(self, "attributes", dict(attributes or {}))
        object.__setattr__(self, "sequence", int(sequence))

    @classmethod
    def from_wire(
        cls,
        event_type: str,
        time: float,
        attributes: dict,
        sequence: int,
    ) -> "Event":
        """Trusted fast-path constructor for already-validated wire data.

        Skips the validation and defensive copies of ``__init__``.  The
        caller guarantees ``time`` is a non-negative finite ``float``,
        ``attributes`` is a fresh ``dict`` the event may own, and
        ``sequence`` is an ``int`` -- exactly what the batched JSONL
        decoder and the sharded blob decoder produce.
        """
        event = object.__new__(cls)
        _set_event_type(event, event_type)
        _set_time(event, time)
        _set_attributes(event, attributes)
        _set_sequence(event, sequence)
        return event

    def __setattr__(self, name: str, value: Any):  # pragma: no cover - guard
        raise AttributeError("Event instances are immutable")

    def __reduce__(self):
        # the default slot-state unpickling would call __setattr__ and hit
        # the immutability guard; rebuild through the constructor instead
        # (the sharded runtime ships events to worker processes via queues)
        return (Event, (self.event_type, self.time, self.attributes, self.sequence))

    # -- attribute access -------------------------------------------------

    def __getitem__(self, attribute: str) -> Any:
        """Return the value of ``attribute``; raise ``KeyError`` if absent."""
        return self.attributes[attribute]

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return the value of ``attribute`` or ``default`` if absent."""
        return self.attributes.get(attribute, default)

    def has(self, attribute: str) -> bool:
        """Return ``True`` when the event carries ``attribute``."""
        return attribute in self.attributes

    # -- ordering and identity --------------------------------------------

    @property
    def order_key(self) -> tuple:
        """Total order key: timestamp first, arrival index second."""
        return (self.time, self.sequence)

    def is_before(self, other: "Event") -> bool:
        """Return ``True`` when this event strictly precedes ``other``."""
        return self.order_key < other.order_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.event_type == other.event_type
            and self.time == other.time
            and self.sequence == other.sequence
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.event_type, self.time, self.sequence))

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attributes.items()))
        return f"Event({self.event_type!r}, t={self.time:g}, {{{attrs}}})"

    # -- convenience -------------------------------------------------------

    def replace(self, **changes: Any) -> "Event":
        """Return a copy of the event with the given fields replaced.

        ``attributes`` given here are merged into (not substituted for) the
        existing attribute mapping.
        """
        attributes = dict(self.attributes)
        attributes.update(changes.pop("attributes", {}))
        return Event(
            event_type=changes.pop("event_type", self.event_type),
            time=changes.pop("time", self.time),
            attributes=attributes,
            sequence=changes.pop("sequence", self.sequence),
        )


#: the slot setters, which :meth:`Event.from_wire` calls directly: half the
#: cost of going through ``object.__setattr__`` by name, once per decoded line
_set_event_type = Event.event_type.__set__
_set_time = Event.time.__set__
_set_attributes = Event.attributes.__set__
_set_sequence = Event.sequence.__set__


class EventSchema:
    """Schema of an event type: its name and the attributes it carries.

    Schemas are optional -- the engine works on schemaless events -- but the
    data-set generators and the parser use them to validate queries early
    and to produce well-formed synthetic streams.
    """

    def __init__(self, event_type: str, attributes: Iterable[str]):
        self.event_type = event_type
        self.attributes = tuple(attributes)
        self._attribute_set = frozenset(self.attributes)

    def has_attribute(self, attribute: str) -> bool:
        """Return ``True`` when the schema declares ``attribute``."""
        return attribute in self._attribute_set

    def validate(self, event: Event) -> bool:
        """Return ``True`` when ``event`` matches this schema."""
        if event.event_type != self.event_type:
            return False
        return all(event.has(attribute) for attribute in self.attributes)

    def create(self, time: float, sequence: int = 0, **attributes: Any) -> Event:
        """Instantiate an event of this type, checking declared attributes."""
        unknown = set(attributes) - self._attribute_set
        if unknown:
            raise ValueError(
                f"attributes {sorted(unknown)} are not declared by schema "
                f"{self.event_type!r}"
            )
        return Event(self.event_type, time, attributes, sequence)

    def __repr__(self) -> str:
        return f"EventSchema({self.event_type!r}, {list(self.attributes)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSchema):
            return NotImplemented
        return (
            self.event_type == other.event_type
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.event_type, self.attributes))


def attribute_names(events: Iterable[Event]) -> frozenset:
    """Return the union of attribute names appearing in ``events``."""
    names: set = set()
    for event in events:
        names.update(event.attributes)
    return frozenset(names)
