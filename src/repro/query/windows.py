"""Sliding window specification (WITHIN / SLIDE clause, Definition 6).

A window of size ``size`` seconds slides every ``slide`` seconds.  Window
``k`` (a non-negative integer identifier, the ``wid`` of Section 7) covers
the half-open time interval ``[k * slide + origin, k * slide + origin + size)``.
An event whose timestamp falls into several overlapping windows contributes
to each of them.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from repro.errors import InvalidQueryError

#: Convenient second counts for the textual WITHIN/SLIDE units.
_UNIT_SECONDS = {
    "millisecond": 0.001,
    "milliseconds": 0.001,
    "ms": 0.001,
    "second": 1.0,
    "seconds": 1.0,
    "sec": 1.0,
    "s": 1.0,
    "minute": 60.0,
    "minutes": 60.0,
    "min": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
    "h": 3600.0,
    "day": 86400.0,
    "days": 86400.0,
}


def duration_to_seconds(amount: float, unit: str) -> float:
    """Convert ``amount unit`` (e.g. ``10, "minutes"``) to seconds."""
    try:
        return float(amount) * _UNIT_SECONDS[unit.strip().lower()]
    except KeyError:
        raise InvalidQueryError(f"unknown time unit {unit!r}") from None


class WindowSpec:
    """A sliding window: ``WITHIN size SLIDE slide`` (both in seconds).

    A ``slide`` equal to ``size`` yields tumbling windows.  ``origin`` lets
    callers anchor window boundaries at a specific timestamp (defaults to
    time zero).
    """

    #: time-based windows place events by timestamp; the count-based kind
    #: (:class:`CountWindowSpec`) overrides this so executors can branch
    #: without isinstance checks
    is_count_based = False

    def __init__(self, size: float, slide: float = 0.0, origin: float = 0.0):
        if size <= 0:
            raise InvalidQueryError(f"window size must be positive, got {size!r}")
        slide = slide or size
        if slide <= 0:
            raise InvalidQueryError(f"window slide must be positive, got {slide!r}")
        if slide > size:
            # Windows with gaps are legal but events in the gaps are dropped;
            # we allow them because some streaming systems do.
            pass
        self.size = float(size)
        self.slide = float(slide)
        self.origin = float(origin)

    # -- window arithmetic ---------------------------------------------------

    def window_start(self, window_id: int) -> float:
        """Start time (inclusive) of window ``window_id``."""
        return self.origin + window_id * self.slide

    def window_end(self, window_id: int) -> float:
        """End time (exclusive) of window ``window_id``."""
        return self.window_start(window_id) + self.size

    def window_interval(self, window_id: int) -> Tuple[float, float]:
        """``(start, end)`` of window ``window_id``."""
        return self.window_start(window_id), self.window_end(window_id)

    def windows_of(self, time: float) -> List[int]:
        """Identifiers of all windows containing timestamp ``time``.

        The result is the (possibly empty) ascending list of integers ``k``
        with ``window_start(k) <= time < window_end(k)`` and ``k >= 0``.
        """
        if time < self.origin:
            return []
        relative = time - self.origin
        last = math.floor(relative / self.slide)
        first = math.floor((relative - self.size) / self.slide) + 1
        first = max(first, 0)
        return [k for k in range(first, last + 1) if relative < k * self.slide + self.size]

    def next_boundary(self, time: float) -> float:
        """A bound after ``time`` with no window start or end in between.

        Every timestamp in ``[time, bound)`` lies in the windows of ``time``
        and is past no window end that ``time`` is not past.  The bound is
        the smallest value :meth:`window_start` / :meth:`window_end` return
        above ``time``, so comparing against it agrees exactly with comparing
        against them.  Where floats around ``time`` lie further apart than
        window edges do (from about 2**53 slides on) it is the next float
        after ``time`` instead: always right, and what keeps this a constant
        amount of work for any timestamp an input line can carry.
        """
        if time < self.origin:
            return self.origin
        if time == math.inf:
            return math.inf
        beyond = math.nextafter(time, math.inf)
        if beyond - time >= self.slide:
            return beyond
        relative = time - self.origin
        bound = math.inf
        for edge, offset in ((self.window_start, 0.0), (self.window_end, self.size)):
            k = max(math.floor((relative - offset) / self.slide) + 1, 0)
            # the estimate can be off by one where the division rounds
            if edge(k) <= time:
                k += 1
            elif k > 0 and edge(k - 1) > time:
                k -= 1
            candidate = edge(k)
            if candidate <= time or (k > 0 and edge(k - 1) > time):
                return beyond
            bound = min(bound, candidate)
        return bound

    def iter_windows(self, start_time: float, end_time: float) -> Iterator[int]:
        """All window identifiers whose interval intersects ``[start_time, end_time)``."""
        if end_time <= start_time:
            return
        first_candidates = self.windows_of(start_time)
        first = first_candidates[0] if first_candidates else max(
            0, math.floor((start_time - self.origin) / self.slide)
        )
        k = first
        while self.window_start(k) < end_time:
            if self.window_end(k) > start_time:
                yield k
            k += 1

    @property
    def is_tumbling(self) -> bool:
        """True when consecutive windows do not overlap."""
        return self.slide >= self.size

    @property
    def windows_per_event(self) -> int:
        """Maximum number of windows a single event belongs to."""
        return int(math.ceil(self.size / self.slide))

    # -- misc -----------------------------------------------------------------

    @classmethod
    def of(cls, size_amount: float, size_unit: str, slide_amount: float, slide_unit: str) -> "WindowSpec":
        """Build a window spec from ``WITHIN 10 minutes SLIDE 30 seconds``-style units."""
        return cls(
            duration_to_seconds(size_amount, size_unit),
            duration_to_seconds(slide_amount, slide_unit),
        )

    def __repr__(self) -> str:
        return f"WindowSpec(size={self.size:g}s, slide={self.slide:g}s)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowSpec):
            return NotImplemented
        if other.is_count_based:
            return False
        return (self.size, self.slide, self.origin) == (other.size, other.slide, other.origin)

    def __hash__(self) -> int:
        return hash((self.size, self.slide, self.origin))


class CountWindowSpec(WindowSpec):
    """A count-based tumbling window: ``WITHIN count events``.

    Window ``k`` covers the half-open *ordinal* interval
    ``[k * count, (k + 1) * count)`` over the executor's event arrival
    ordinals (every processed event advances the ordinal by one, whether or
    not a local predicate later filters it).  Count windows are always
    tumbling -- every event belongs to exactly one window -- and they close
    on event arrival, never on watermarks: a window emits when the first
    event of the next window arrives, or at flush.

    ``window_start``/``window_end``/``window_interval`` report ordinals, not
    timestamps, so downstream consumers (``EmissionRecord``, sinks) see the
    event-count bounds of each window.
    """

    is_count_based = True

    def __init__(self, count: int):
        if count != int(count) or int(count) <= 0:
            raise InvalidQueryError(
                f"count window size must be a positive integer, got {count!r}"
            )
        self.count = int(count)
        # mirror the time-based attributes in ordinal units so generic code
        # that only reads size/slide (cost models, repr) keeps working
        self.size = float(self.count)
        self.slide = float(self.count)
        self.origin = 0.0

    def window_start(self, window_id: int) -> float:
        """First event ordinal (inclusive) of window ``window_id``."""
        return float(window_id * self.count)

    def window_end(self, window_id: int) -> float:
        """Past-the-end event ordinal of window ``window_id``."""
        return float((window_id + 1) * self.count)

    def windows_of(self, time: float) -> List[int]:
        """Count windows cannot be located by timestamp."""
        raise InvalidQueryError(
            "count-based windows place events by arrival ordinal, not by "
            "timestamp; use window_of_ordinal"
        )

    def window_of_ordinal(self, ordinal: int) -> int:
        """The single window containing the ``ordinal``-th event (0-based)."""
        return ordinal // self.count

    def iter_windows(self, start_time: float, end_time: float) -> Iterator[int]:
        raise InvalidQueryError(
            "count-based windows place events by arrival ordinal, not by "
            "timestamp"
        )

    @property
    def is_tumbling(self) -> bool:
        return True

    @property
    def windows_per_event(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"CountWindowSpec(count={self.count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountWindowSpec):
            return NotImplemented
        return self.count == other.count

    def __hash__(self) -> int:
        return hash(("count", self.count))
