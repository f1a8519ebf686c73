"""Watermark-driven window lifecycle and incremental result emission.

In batch mode every window of a :class:`~repro.core.executor.QueryExecutor`
is closed either by a later event or by :meth:`flush` at end of stream.  A
streaming deployment cannot wait for end of stream: a window's results must
leave the system -- and its aggregate state must be evicted -- as soon as the
*watermark* passes the window's end, because the watermark is exactly the
promise that no further event can fall into the window.

:class:`EmissionController` performs that lifecycle step for every
registered executor and wraps each emitted
:class:`~repro.core.results.GroupResult` in an :class:`EmissionRecord`
carrying the query name and the watermark that triggered the emission, so
downstream consumers (CLI, tests, benchmark) can observe *when* a result
became available, not only its value.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.core.executor import QueryExecutor
from repro.core.results import GroupResult


class EmissionRecord:
    """One group result together with its emission context.

    Attributes
    ----------
    query:
        Name of the registered query that produced the result.
    result:
        The emitted :class:`~repro.core.results.GroupResult`.
    watermark:
        Watermark value at emission time (``inf`` for end-of-stream flushes).
    is_correction:
        True for records produced by side-channel late-event replay
        (:meth:`~repro.streaming.runtime.StreamingRuntime.reprocess_late`):
        the record patches a window that was already emitted, it does not
        replace it.
    """

    __slots__ = ("query", "result", "watermark", "is_correction")

    def __init__(
        self,
        query: str,
        result: GroupResult,
        watermark: float,
        is_correction: bool = False,
    ):
        self.query = query
        self.result = result
        self.watermark = watermark
        self.is_correction = is_correction

    @property
    def is_final_flush(self) -> bool:
        """True when the record was produced by the end-of-stream flush."""
        return math.isinf(self.watermark)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view used by the CLI's JSONL output.

        The ``query`` and ``watermark`` metadata keys are authoritative: a
        grouping attribute or RETURN column of the same name cannot clobber
        them (query attribution must survive for downstream consumers).
        """
        row: Dict[str, object] = self.result.as_dict()  # a fresh dict
        row["query"] = self.query
        if not math.isinf(self.watermark):
            row["watermark"] = self.watermark
        if self.is_correction:
            row["is_correction"] = True
        return row

    def __repr__(self) -> str:
        flag = ", correction" if self.is_correction else ""
        return (
            f"EmissionRecord({self.query!r}, wm={self.watermark:g}, "
            f"{self.result!r}{flag})"
        )


class EmissionController:
    """Advances executors to the watermark and collects emission records."""

    def __init__(self) -> None:
        #: query name -> number of results emitted so far (for introspection)
        self.emitted_counts: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------------

    def advance(
        self, query: str, executor: QueryExecutor, watermark: float
    ) -> List[EmissionRecord]:
        """Emit (and evict) every window of ``executor`` ending <= ``watermark``."""
        if math.isinf(watermark) and watermark < 0:
            return []
        results = executor.advance_time(watermark)
        return self._wrap(query, results, watermark)

    def close(self, query: str, executor: QueryExecutor) -> List[EmissionRecord]:
        """End-of-stream flush: emit everything the executor still holds."""
        return self._wrap(query, executor.flush(), math.inf)

    def collect(
        self, query: str, results: List[GroupResult], watermark: float
    ) -> List[EmissionRecord]:
        """Wrap results produced as a side effect of processing an event.

        The executor also closes windows when a newly processed event lies
        beyond their end; those results carry the same watermark context as
        the surrounding ingestion step.
        """
        return self._wrap(query, results, watermark)

    def _wrap(
        self, query: str, results: List[GroupResult], watermark: float
    ) -> List[EmissionRecord]:
        if results:
            self.emitted_counts[query] = (
                self.emitted_counts.get(query, 0) + len(results)
            )
        return [EmissionRecord(query, result, watermark) for result in results]

    # -- introspection ---------------------------------------------------------

    def emitted(self, query: Optional[str] = None) -> int:
        """Results emitted so far, for one query or over all queries."""
        if query is not None:
            return self.emitted_counts.get(query, 0)
        return sum(self.emitted_counts.values())
