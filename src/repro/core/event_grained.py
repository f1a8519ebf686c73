"""Event-grained aggregator: the finest granularity (GRETA's strategy).

The mixed-grained aggregator of Section 5 degenerates to *event* granularity
when every pattern variable appears on the predecessor side of some adjacent
predicate (``Tt = ∅``).  This is that case: Algorithm 2 with ``Tt = ∅``
(:class:`~repro.core.mixed_grained.MixedGrainedAggregator`, whose fold it
shares), under a class of its own so that

* the granularity selector can report :class:`~repro.analyzer.granularity.
  Granularity.EVENT` and checkpoints record which granularity built an
  aggregator (``"EventGrainedAggregator"``, its stored events as
  ``"nodes"``), and
* ablation studies can force a coarser-eligible query down to event
  granularity and measure exactly what the coarse-grained strategies save
  (see :mod:`repro.bench.ablation`).

One accumulator is kept per matched event binding -- the node set of the
GRETA graph -- and processing a new event touches every stored node of a
predecessor variable.  Time complexity is ``O(n^2)`` and space ``Θ(n)`` per
sub-stream, which is exactly the complexity the paper attributes to GRETA
and improves upon with the type/mixed/pattern granularities.
"""

from __future__ import annotations

from repro.core.mixed_grained import MixedGrainedAggregator


class EventGrainedAggregator(MixedGrainedAggregator):
    """Maintains one trend accumulator per matched event binding."""

    __slots__ = ()
