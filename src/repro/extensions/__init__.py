"""Query language extensions sketched in Section 8 of the paper.

* :mod:`repro.extensions.rewrites` -- Kleene star and optional sub-patterns
  are syntactic sugar (``SEQ(Pi*, Pj) = SEQ(Pi+, Pj) | Pj`` and
  ``SEQ(Pi?, Pj) = SEQ(Pi, Pj) | Pj``); the rewriter turns them into the
  plus/sequence/disjunction core the aggregators already support.
* Disjunction needs no rewriting: the pattern automaton folds the
  alternatives into one predecessor-type relation and every granularity
  aggregates it natively (covered by the test suite).
* Repeated event types are supported by binding events to pattern
  *variables* rather than types (Section 8, "multiple event type
  occurrences"); see :class:`repro.analyzer.automaton.PatternAutomaton`.
* :mod:`repro.extensions.negation` -- negated event type atoms between two
  positive parts of a sequence, maintained with the per-granularity
  invalidation rules of Section 8.
"""

from repro.extensions.negation import (
    NegatedComponent,
    NegationAnalysis,
    trend_respects_negations,
)
from repro.extensions.rewrites import desugar_pattern, expand_min_trend_length

__all__ = [
    "NegatedComponent",
    "NegationAnalysis",
    "desugar_pattern",
    "expand_min_trend_length",
    "trend_respects_negations",
]
