"""Event-grained aggregator: the finest granularity (GRETA's strategy).

The mixed-grained aggregator of Section 5 degenerates to *event* granularity
when every pattern variable appears on the predecessor side of some adjacent
predicate (``Tt = ∅``).  This module implements that extreme case as its own
aggregator so that

* the granularity selector can report :class:`~repro.analyzer.granularity.
  Granularity.EVENT` and dispatch to a dedicated implementation, and
* ablation studies can force a coarser-eligible query down to event
  granularity and measure exactly what the coarse-grained strategies save
  (see :mod:`repro.bench.ablation`).

One accumulator is kept per matched event binding -- the node set of the
GRETA graph -- and processing a new event touches every stored node of a
predecessor variable.  Time complexity is ``O(n^2)`` and space ``Θ(n)`` per
sub-stream, which is exactly the complexity the paper attributes to GRETA
and improves upon with the type/mixed/pattern granularities.

The scan over the stored nodes is inherent; what it costs per node is not.
:func:`adjacent_cells` (shared with the mixed-grained aggregator) checks a
stored event against the pair's conditions as the plan compiled them, and
:func:`fold_stored_events` (shared with the negation-aware subclass) builds
the one cell a stored event needs straight from the cells the scan found.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator, fold_into
from repro.core.base import SubstreamAggregator
from repro.events.event import Event


#: the ``cutoff_keys`` of an aggregator that blocks no stored predecessor
_NO_CUTOFFS: Dict[Tuple[str, str], Tuple] = {}


def adjacent_cells(nodes, conditions, event, time, sequence, sources) -> None:
    """Append to ``sources`` the cells of the ``nodes`` adjacent to ``event``.

    ``nodes`` are stored ``(event, cell)`` pairs of one predecessor variable
    and ``conditions`` the pair's :attr:`CograPlan.adjacent_conditions`
    entry; ``(time, sequence)`` is the order key of ``event``.  Definition 7,
    conditions 2-3: the stored event strictly precedes ``event`` -- which also
    keeps an event from preceding itself when it binds to several variables
    (Section 8) -- and the pair satisfies every adjacent predicate.
    """
    for stored, cell in nodes:
        stored_time = stored.time
        if stored_time < time or (stored_time == time and stored.sequence < sequence):
            for condition in conditions:
                if not condition(stored, event):
                    break
            else:
                sources.append(cell)


def fold_stored_events(windows, run, cutoff_keys) -> None:
    """Store each bound event of ``run`` in every aggregator of ``windows``.

    Per binding and window one cell is built, for the node that is stored:
    the trends ending at the adjacent stored predecessors, each extended by
    the event, plus the event's own trend under a start variable.
    ``cutoff_keys`` maps the edges whose stored predecessors an aggregator
    blocks below an index of its ``_cutoffs`` (negation) to that entry's key;
    the plain event-grained class blocks none.
    """
    plan = windows[0].plan
    targets = plan.targets
    conditions = plan.adjacent_conditions
    ends = plan.automaton.end_variables
    processed = 0
    for event, binding in run:
        if not binding:
            continue  # irrelevant events are skipped under skip-till-any-match
        processed += 1
        time = event.time
        sequence = event.sequence
        for (variable, predecessors, starts, own, _attributes), values in binding:
            is_end = variable in ends
            for aggregator in windows:
                nodes = aggregator._nodes
                sources = []
                for name in predecessors:
                    edge = (name, variable)
                    stored = nodes[name]
                    if edge in cutoff_keys:
                        # nodes are appended in arrival order
                        stored = stored[aggregator._cutoffs[cutoff_keys[edge]]:]
                    adjacent_cells(stored, conditions[edge], event, time, sequence, sources)
                cell = TrendAccumulator(targets)
                fold_into((cell,), sources, starts, own, values)
                nodes[variable].append((event, cell))
                if is_end:
                    aggregator._final.merge(cell)
    for aggregator in windows:
        aggregator.events_processed += processed


class EventGrainedAggregator(SubstreamAggregator):
    """Maintains one trend accumulator per matched event binding."""

    __slots__ = ("_nodes", "_final")

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        #: variable -> list of (event, accumulator of trends ending at that event)
        self._nodes: Dict[str, List[Tuple[Event, TrendAccumulator]]] = {
            variable: [] for variable in plan.automaton.variables
        }
        #: accumulator of all finished trends seen so far
        self._final = TrendAccumulator.zero(plan.targets)

    # -- hot path -----------------------------------------------------------------

    def process_run(self, run, also=()) -> None:
        """Insert the run's events into the graph of ``self`` and of ``also``."""
        fold_stored_events((self, *also), run, _NO_CUTOFFS)

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        return self._final.copy()

    def stored_nodes(self, variable: str) -> List[Tuple[Event, TrendAccumulator]]:
        """Stored (event, accumulator) pairs of ``variable`` (for inspection)."""
        return list(self._nodes[variable])

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = self._final.storage_units
        for entries in self._nodes.values():
            for _, cell in entries:
                # the stored event itself counts as one unit besides its cell
                units += 1 + cell.storage_units
        return units

    def stored_event_count(self) -> int:
        return sum(len(entries) for entries in self._nodes.values())
