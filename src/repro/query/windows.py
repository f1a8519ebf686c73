"""Sliding window specification (WITHIN / SLIDE clause, Definition 6).

A window of size ``size`` seconds slides every ``slide`` seconds.  Window
``k`` (a non-negative integer identifier, the ``wid`` of Section 7) covers
the half-open time interval ``[window_start(k), window_end(k))``; an event
whose timestamp falls into several overlapping windows contributes to each
of them.

There is one grid, ``window_start(k) = origin + k * slide``.  A ``size`` of
a whole number ``m`` of slides ends window ``k`` on it, at
``window_start(k + m)``, so tumbling windows partition time and reported
bounds abut; any other ``size`` ends it at ``window_start(k) + size``.
Placement, the next boundary and expiry all read two indices into that grid
(:meth:`WindowSpec._last_started`, :meth:`WindowSpec._first_live`), each
settled against the edge function it indexes, so none of them can disagree
with ``window_start(k) <= time < window_end(k)``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, List, Optional, Tuple

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


def _finite(what: str, value: float) -> float:
    """``value`` as a float; a bool, a NaN or an infinity is not a number here."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise InvalidQueryError(f"{what} must be a finite number, got {value!r}")
    return float(value)


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
    time zero).  A ``slide`` above ``size`` leaves gaps between windows;
    events in the gaps belong to no window and are dropped.
    """

    #: time-based windows place events by timestamp; the count-based kind
    #: (:class:`CountWindowSpec`) overrides this so executors can branch
    #: without isinstance checks
    is_count_based = False

    def __init__(self, size: float, slide: float = 0.0, origin: float = 0.0):
        self.size = _finite("window size", size)
        self.slide = _finite("window slide", slide) or self.size
        self.origin = _finite("window origin", origin)
        if self.size <= 0:
            raise InvalidQueryError(f"window size must be positive, got {size!r}")
        if self.slide <= 0:
            raise InvalidQueryError(f"window slide must be positive, got {slide!r}")
        slides = _finite("window size in slides", self.size / self.slide)
        whole = round(slides)
        #: ``size`` in slides where it is a whole number of them -- up to the
        #: rounding of the two literals, 0.3 / 0.1 is 2.9999999999999996 --
        #: and 0 where it is not: what puts window ends on the start grid
        self._slides = (
            whole if abs(slides - whole) <= 4 * sys.float_info.epsilon * whole else 0
        )

    # -- window arithmetic ---------------------------------------------------

    def window_start(self, window_id: int) -> float:
        """Start time (inclusive) of window ``window_id``: the grid."""
        try:
            return self.origin + window_id * self.slide
        except OverflowError:  # an id no float holds: past every timestamp
            return math.inf

    def window_end(self, window_id: int) -> float:
        """End time (exclusive) of window ``window_id``."""
        if self._slides:
            return self.window_start(window_id + self._slides)
        return self.window_start(window_id) + self.size

    def window_interval(self, window_id: int) -> Tuple[float, float]:
        """``(start, end)`` of window ``window_id``."""
        return self.window_start(window_id), self.window_end(window_id)

    def _last_at_or_before(
        self, edge: Callable[[int], float], time: float, offset: float
    ) -> int:
        """Largest id whose ``edge`` is at or before ``time``, negative if none is.

        ``edge`` is :meth:`window_start` or :meth:`window_end` (``offset``
        past the start); both grow with the id.  One division estimates the
        id and ``edge`` settles it: two calls, a step more where the division
        rounded across an edge.  From about 2**53 slides on many ids share
        an edge and the search doubles its step, which bounds the work by
        the float exponent range for any finite timestamp.
        """
        if time < self.origin:
            return -1
        if not time < math.inf:
            raise ValueError(f"no window index for a non-finite time {time!r}")
        estimate = (time - self.origin - offset) / self.slide
        k = math.floor(min(estimate, sys.float_info.max))
        step = 1
        while edge(k) > time:
            k -= step
            step *= 2
        step = 1
        while edge(k + step) <= time:
            k += step
            step *= 2
        # edge(k) <= time < edge(k + step): halve the bracket down to one id
        while step > 1:
            step //= 2
            if edge(k + step) <= time:
                k += step
        return k

    def _last_started(self, time: float) -> int:
        """Largest ``k`` with ``window_start(k) <= time``; -1 before the origin."""
        return self._last_at_or_before(self.window_start, time, 0.0)

    def _first_live(self, time: float, last_started: Optional[int] = None) -> int:
        """Smallest ``k >= 0`` with ``window_end(k) > time`` (``time`` finite).

        Every window below it has ended at ``time`` and may be closed.  Ends
        on the start grid are read off ``_last_started(time)``; a caller
        that has it passes it on.
        """
        if not self._slides:
            last_ended = self._last_at_or_before(self.window_end, time, self.size)
        elif last_started is None:
            last_ended = self._last_started(time) - self._slides
        else:
            last_ended = last_started - self._slides
        return max(last_ended + 1, 0)

    def windows_of(self, time: float) -> List[int]:
        """Identifiers of all windows containing timestamp ``time``.

        The result is the (possibly empty) ascending list of integers ``k``
        with ``window_start(k) <= time < window_end(k)`` and ``k >= 0``.
        """
        last_started = self._last_started(time)
        return list(range(self._first_live(time, last_started), last_started + 1))

    def next_boundary(self, time: float) -> float:
        """The smallest window start or end after ``time``.

        Every timestamp in ``[time, bound)`` lies in the windows of ``time``
        and is past no window end that ``time`` is not past.  Edges are what
        :meth:`window_start` and :meth:`window_end` return: where floats
        around ``time`` lie further apart than slides do, the bound is the
        next float an edge rounds to.
        """
        if time == math.inf:
            return math.inf
        last_started = self._last_started(time)
        return min(
            self.window_start(last_started + 1),
            self.window_end(self._first_live(time, last_started)),
        )

    @property
    def is_tumbling(self) -> bool:
        """True when consecutive windows do not overlap."""
        return self.slide >= self.size

    # -- misc -----------------------------------------------------------------

    @classmethod
    def of(
        cls, size_amount: float, size_unit: str, slide_amount: float, slide_unit: str
    ) -> "WindowSpec":
        """Build a window spec from ``WITHIN 10 minutes SLIDE 30 seconds`` units."""
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
        spec = (other.size, other.slide, other.origin)
        return (self.size, self.slide, self.origin) == spec

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
        if _finite("count window size", count) != int(count) or count <= 0:
            raise InvalidQueryError(
                f"count window size must be a positive integer, got {count!r}"
            )
        self.count = int(count)
        # the same grid in ordinal units: one slide of ``count`` events per
        # window, which is also what generic code reading size/slide (cost
        # models, repr) expects
        super().__init__(self.count)

    def windows_of(self, time: float) -> List[int]:
        """Count windows cannot be located by timestamp."""
        raise InvalidQueryError(
            "count-based windows place events by arrival ordinal, not by "
            "timestamp; use window_of_ordinal"
        )

    def window_of_ordinal(self, ordinal: int) -> int:
        """The single window containing the ``ordinal``-th event (0-based)."""
        return ordinal // self.count

    def __repr__(self) -> str:
        return f"CountWindowSpec(count={self.count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountWindowSpec):
            return NotImplemented
        return self.count == other.count

    def __hash__(self) -> int:
        return hash(("count", self.count))
