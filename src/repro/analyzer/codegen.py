"""Compiling the per-plan functions a :class:`~repro.analyzer.plan.CograPlan` generates.

A plan generates its hot-path functions at build time: the grouper
(:meth:`CograPlan.group`) and, per pattern variable, the fold its
aggregators run -- Algorithm 1's type-grained kernel at TYPE granularity
(a negated query's reads and writes Section 8's compatible cells too),
Algorithm 2's step (each automaton edge whose
predecessor stores events scanned inside it) at MIXED and EVENT
granularity, Algorithm 3's at PATTERN.  Every fold is emitted from
one template of the recurrence's per-target arithmetic
(:class:`repro.core.type_grained.Recurrence`).  Every generator follows
the same rules:

* the source holds only integers, operators from a fixed table and names
  the generator made -- event types, attribute and variable names and
  everything else a query may spell are bound constants, passed to the
  source's ``build`` function;
* the source is registered with :mod:`linecache` under a ``<...>`` label,
  so tracebacks and profiles show the generated line;
* nothing is cached across plans: a restore and each sharded worker
  build a plan, and so generate, their own.
"""

from __future__ import annotations

import linecache
from typing import Dict, List


def compile_generated(label: str, source: str, *constants):
    """``build(*constants)`` of ``source``, compiled under ``label``.

    ``source`` defines ``build``, which takes the constants and returns
    what was generated.  ``label`` is ``<...>``-shaped; plans of different
    queries may share one, and a different source gets it numbered,
    ``<... #2>``.
    """
    lines = source.splitlines(True)
    filename = label
    number = 1
    while True:
        entry = linecache.cache.get(filename)
        if entry is None or (len(entry) == 4 and entry[2] == lines):
            break
        number += 1
        filename = f"{label[:-1]} #{number}>"
    linecache.cache[filename] = (len(source), None, lines, filename)
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["build"](*constants)


class Constants:
    """The bound constants of one generated source, in ``build``'s order.

    ``constants(kind, value)`` adds ``value`` and returns the name the
    source calls it by, ``kind`` numbered: ``attribute_0``, ``type_1``...
    """

    def __init__(self, **named):
        #: the parameter names of ``build``
        self.names: List[str] = list(named)
        #: the values passed for them
        self.values: List[object] = list(named.values())

    def __call__(self, kind: str, value) -> str:
        name = f"{kind}_{len(self.values)}"
        self.names.append(name)
        self.values.append(value)
        return name
