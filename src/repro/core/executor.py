"""Runtime executor: windows, grouping and result emission (Section 7).

The executor consumes a time-ordered event stream and routes every event to
one sub-stream aggregator per (window, group) combination.  Aggregator
instances are created lazily on the first event of a sub-stream and torn
down as soon as their window expires, at which point the aggregation result
of every group in the window is emitted.

The open aggregators live in one index, ``{window_id: {key: aggregator}}``:
emission and expiry are per window (pop one table), and a run of events is
dispatched once per (group, run) -- the group's aggregators in the run's
windows are looked up in the windows' tables and handed the run together
(:meth:`SubstreamAggregator.process_run`).  The layout is private;
:meth:`QueryExecutor.open_aggregators` and :meth:`QueryExecutor.adopt` are
how checkpointing and the replan loop read and replace it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analyzer.plan import CograPlan, plan_query
from repro.core.aggregate_state import read_columns, result_columns
from repro.core.base import SubstreamAggregator, aggregator_class, create_aggregator
from repro.core.partitioner import window_bounds
from repro.core.results import GroupResult
from repro.errors import StreamOrderError
from repro.events.event import Event
from repro.query.query import Query


def _first_at_or_after(events: List[Event], bound: float, lo: int, hi: int) -> int:
    """Index of the first of the time-ordered ``events[lo:hi]`` at or after ``bound``."""
    while lo < hi:
        middle = (lo + hi) // 2
        if events[middle].time < bound:
            lo = middle + 1
        else:
            hi = middle
    return lo


class QueryExecutor:
    """Evaluates one event trend aggregation query over a stream.

    Parameters
    ----------
    query:
        The query to evaluate, or an already-computed :class:`CograPlan`.
    emit_empty_groups:
        When True, groups whose final trend count is zero are still emitted
        (with ``COUNT(*) = 0`` and ``None`` extrema).  Defaults to False,
        matching the usual CEP behaviour of reporting only matched groups.
    aggregator_factory:
        Callable mapping a plan to a fresh sub-stream aggregator.  Defaults
        to :func:`~repro.core.base.create_aggregator`; the negation
        extension substitutes negation-aware aggregators here.
    """

    def __init__(self, query, emit_empty_groups: bool = False, aggregator_factory=None):
        if isinstance(query, CograPlan):
            self.plan = query
        elif isinstance(query, Query):
            self.plan = plan_query(query)
        else:
            raise TypeError(f"expected a Query or CograPlan, got {type(query).__name__}")
        self.query = self.plan.query
        self.emit_empty_groups = emit_empty_groups
        #: plan -> aggregator for any plan of this query (a restore after a
        #: live migration rebuilds aggregators of the previous granularity)
        self._aggregator_factory = aggregator_factory or create_aggregator
        #: the same for this executor's own plan, resolved once: the class
        #: itself unless a factory was injected
        self._new_aggregator = aggregator_factory or aggregator_class(
            self.plan.granularity
        )
        #: the RETURN columns as slots of a final accumulator; every plan
        #: of the query tracks the same targets, so adopted aggregators too
        self._columns = result_columns(self.query.aggregates, self.plan.targets)

        window = self.query.window
        #: set for count-based tumbling windows, which place events by
        #: arrival ordinal (``events_seen``) instead of timestamp and close
        #: on arrival of the next window's first event, never on watermarks
        self._count_window = (
            window if window is not None and window.is_count_based else None
        )
        #: window id -> group key -> aggregator; a table exists only while
        #: it holds an aggregator
        self._windows: Dict[int, Dict[Tuple, SubstreamAggregator]] = {}
        #: largest window id holding an aggregator adopted under another plan
        #: of this query (window ids start at 0): up to it a group's windows
        #: may hold aggregators of two classes, see :meth:`adopt`
        self._adopted_until = -1
        #: smallest open window id, or None; window ends grow with the id,
        #: so expiry checks can bail out in O(1) when nothing can close
        self._min_open_window: Optional[int] = None
        self._last_time: Optional[float] = None
        self._events_seen = 0
        #: event types the pattern mentions (read by the runtime's router)
        self._relevant_types = frozenset(
            self.plan.automaton.variable_types[variable]
            for variable in self.plan.automaton.variables
        )

    # -- streaming interface -------------------------------------------------------

    def process(self, event: Event) -> List[GroupResult]:
        """Feed one event; return the results of windows that just closed."""
        return self._fold((event,))

    def quiet_run(self, events: List[Event], start: int = 0) -> int:
        """End index of the longest run ``events[start:stop]`` that folds whole.

        A run folds whole when only its first event can close a window and
        every later one falls into the first one's windows: one expiry
        check, one dispatch per key.  For a time window that is everything
        before the next window start or end after the first event
        (:meth:`WindowSpec.next_boundary`); queries without a WITHIN clause
        never emit mid-stream, so the rest of ``events`` is one run.  Count
        windows cut at multiples of ``count`` in ordinals, ``events[start]``
        being number :attr:`events_seen`.  ``events`` must be in time order.
        """
        count = len(events)
        window = self.query.window
        if window is None or count - start <= 1:
            return count
        if window.is_count_based:
            return min(count, start + window.count - self._events_seen % window.count)
        bound = window.next_boundary(events[start].time)
        if events[-1].time < bound:
            return count
        return _first_at_or_after(events, bound, start + 1, count)

    def process_batch(
        self, events: List[Event]
    ) -> List[Tuple[int, List[GroupResult]]]:
        """Feed an ordered span of events; ≡ :meth:`process` on each in turn.

        The span is cut at this query's window boundaries (:meth:`quiet_run`)
        -- here and nowhere else -- and each run folded whole, so state and
        output never depend on how the stream was sliced.  Returns
        ``(start, results)`` for every run that closed windows, in order:
        ``start`` is the index in ``events`` of the run's first event, the
        one whose arrival closed them, so a caller feeding several executors
        the same span can put their results back into arrival order.
        """
        closed: List[Tuple[int, List[GroupResult]]] = []
        count = len(events)
        start = 0
        while start < count:
            stop = self.quiet_run(events, start)
            results = self._fold(
                events if stop - start == count else events[start:stop]
            )
            if results:
                closed.append((start, results))
            start = stop
        return closed

    def _fold(self, events) -> List[GroupResult]:
        """Close what the run's first event expires, bind each event once, fold by key.

        ``events`` is a run as :meth:`quiet_run` cuts it.  One call of the
        plan's generated grouper (:attr:`CograPlan.group`) binds every event
        once and groups the bound events by partition key -- a target value
        that is not a number raises :class:`~repro.errors.InvalidEventError`
        there, before any fold -- and each group is handed, in one call, to
        the key's aggregators in all windows of the run.  Grouping
        non-consecutive same-key events together is safe *because* nothing
        closes after the first event: each (window, key) aggregator only ever
        sees its own key's events in their original relative order, and
        window emission sorts group keys.
        """
        if not events:
            return []
        previous = self._last_time
        for event in events:
            if previous is not None and event.time < previous:
                raise StreamOrderError(
                    f"event at time {event.time} arrived after time {previous}"
                )
            previous = event.time
        self._last_time = previous
        count_window = self._count_window
        if count_window is not None:
            window_ids = [count_window.window_of_ordinal(self._events_seen)]
            emitted = self._close_windows_below(window_ids[0])
        else:
            time = events[0].time
            emitted = self._close_expired_windows(time)
            window = self.query.window
            window_ids = [0] if window is None else window.windows_of(time)
        self._events_seen += len(events)
        grouped = self.plan.group(events)
        if not grouped or not window_ids:
            return emitted
        # every key of the run gets an aggregator in every window of the run,
        # so a table created here never stays empty
        windows = self._windows
        tables = []
        for window_id in window_ids:
            table = windows.get(window_id)
            if table is None:
                table = windows[window_id] = {}
                if self._min_open_window is None or window_id < self._min_open_window:
                    self._min_open_window = window_id
            tables.append(table)
        first = tables[0]
        rest = tables[1:]
        one_class = window_ids[0] > self._adopted_until
        new_aggregator = self._new_aggregator
        plan = self.plan
        for key, run in grouped.items():
            head = first.get(key)
            if head is None:
                head = first[key] = new_aggregator(plan)
            also = []
            for table in rest:
                aggregator = table.get(key)
                if aggregator is None:
                    aggregator = table[key] = new_aggregator(plan)
                also.append(aggregator)
            if one_class:
                head.process_run(run, also)
            else:
                _process_run_by_class(head, also, run)
        return emitted

    def run(self, events: Iterable[Event]) -> List[GroupResult]:
        """Process a whole stream and return every emitted result."""
        collected: List[GroupResult] = []
        for event in events:
            collected.extend(self.process(event))
        collected.extend(self.flush())
        return collected

    def flush(self) -> List[GroupResult]:
        """Close every remaining window and return its results."""
        emitted: List[GroupResult] = []
        for window_id in sorted(self._windows):
            emitted.extend(self._emit_window(window_id))
        self._min_open_window = None
        return emitted

    def advance_time(self, time: float) -> List[GroupResult]:
        """Declare that no event before ``time`` will arrive any more.

        Emits (and evicts) every window whose end lies at or before ``time``
        without processing an event -- the hook the streaming runtime uses to
        drive window emission from watermarks instead of event arrivals.
        Events processed afterwards must carry timestamps ``>= time``.
        """
        if self._last_time is None or time > self._last_time:
            self._last_time = time
        return self._close_expired_windows(time)

    # -- inspection ------------------------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Number of events fed into the executor so far."""
        return self._events_seen

    @property
    def last_time(self) -> Optional[float]:
        """Largest event time or watermark seen so far (``None`` before any)."""
        return self._last_time

    def open_window_count(self) -> int:
        """Number of windows currently maintained."""
        return len(self._windows)

    def open_group_count(self) -> int:
        """Number of (window, group) aggregators currently maintained."""
        return sum(len(table) for table in self._windows.values())

    def open_aggregators(self) -> Iterator[Tuple[int, Tuple, SubstreamAggregator]]:
        """Every open ``(window_id, key, aggregator)``, in no particular order."""
        for window_id, table in self._windows.items():
            for key, aggregator in table.items():
                yield window_id, key, aggregator

    def storage_units(self) -> int:
        """Scalar values currently stored across every open aggregator.

        This is the machine-independent memory metric used by the
        benchmark harness to reproduce the paper's memory charts.
        """
        return sum(
            aggregator.storage_units() for _, _, aggregator in self.open_aggregators()
        )

    def stored_event_count(self) -> int:
        """Matched events currently stored across every open aggregator."""
        return sum(
            aggregator.stored_event_count()
            for _, _, aggregator in self.open_aggregators()
        )

    # -- state transfer (checkpoint restore, live migration) --------------------------

    def adopt(
        self,
        events_seen: int,
        last_time: Optional[float],
        aggregators: Iterable[Tuple[int, Tuple, SubstreamAggregator]],
    ) -> None:
        """Replace the runtime state by the given one.

        ``aggregators`` are ``(window_id, key, aggregator)`` entries as
        :meth:`open_aggregators` yields them; whatever was open is discarded.
        An aggregator built under another plan of the same query is kept as
        it is: a live granularity migration leaves the open windows to the
        previous granularity's aggregators until the watermark closes them,
        while groups new to those windows aggregate under this executor's
        plan.
        """
        self._events_seen = events_seen
        self._last_time = last_time
        self._windows = {}
        self._adopted_until = -1
        for window_id, key, aggregator in aggregators:
            self._windows.setdefault(window_id, {})[key] = aggregator
            if aggregator.plan is not self.plan and window_id > self._adopted_until:
                self._adopted_until = window_id
        self._min_open_window = min(self._windows) if self._windows else None

    # -- internals ---------------------------------------------------------------------

    def _close_expired_windows(self, time: float) -> List[GroupResult]:
        """Emit every open time window that has ended at ``time``."""
        window = self.query.window
        if window is None or window.is_count_based or self._min_open_window is None:
            # count windows close on event arrival, not on watermarks
            return []
        if window.window_end(self._min_open_window) > time:
            return []  # the earliest open window is still live
        if time == math.inf:  # the sharded flush: every window has ended
            return self.flush()
        return self._close_windows_below(window._first_live(time))

    def _close_windows_below(self, first_live: int) -> List[GroupResult]:
        """Emit every open window that precedes ``first_live``, in id order."""
        if self._min_open_window is None or self._min_open_window >= first_live:
            return []
        emitted: List[GroupResult] = []
        for window_id in sorted(w for w in self._windows if w < first_live):
            emitted.extend(self._emit_window(window_id))
        self._min_open_window = min(self._windows) if self._windows else None
        return emitted

    def _emit_window(self, window_id: int) -> List[GroupResult]:
        table = self._windows.pop(window_id)
        start, end = window_bounds(self.query.window, window_id)
        emit_empty = self.emit_empty_groups
        columns = self._columns
        attributes = self.plan.partition_attributes
        emitted: List[GroupResult] = []
        for key in sorted(table, key=repr):
            accumulator = table[key].final_accumulator()
            count = accumulator.trend_count
            if count == 0 and not emit_empty:
                continue
            values = read_columns(columns, accumulator)
            group = dict(zip(attributes, key))
            # positional: a keyword call is measurably slower, once per row
            emitted.append(GroupResult(window_id, start, end, group, values, count))
        return emitted


def _process_run_by_class(head, also, run) -> None:
    """``head.process_run(run, also)`` when ``also`` may hold other classes.

    Each class folds a run its own way, so every stretch of consecutive
    same-class aggregators gets its own call.  Window ids ascend and a
    migration only affects windows open at the time, so there are at most
    two stretches per migration still in flight.
    """
    stretch = []
    for aggregator in also:
        if type(aggregator) is type(head):
            stretch.append(aggregator)
        else:
            head.process_run(run, stretch)
            head, stretch = aggregator, []
    head.process_run(run, stretch)
