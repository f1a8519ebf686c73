"""Labeled metrics registry: counters, gauges, and mergeable histograms.

The registry is the storage layer of the observability subsystem.  It is
deliberately tiny and dependency-free so the hot paths of the streaming
runtime can afford it:

* a **family** is a named metric with a fixed label schema
  (``cogra_query_events_total`` labeled by ``query``);
* a **child** is one time series inside a family (one concrete label
  assignment).  Children are plain ``__slots__`` objects cached by the
  family, so instrumented code holds a direct reference and pays one
  attribute increment per observation -- no dictionary lookup, no lock.

Histograms use **fixed log-spaced bucket bounds** shared by every process.
Because the bounds never depend on the data, two histograms of the same
family merge by element-wise addition of bucket counts, which is what lets
:class:`~repro.streaming.sharded.ShardedRuntime` aggregate worker registries
into a parent view that is exactly the single-process histogram (same
observations, same buckets).  Quantiles (p50/p95/p99) are estimated from the
merged bucket counts by linear interpolation inside the bucket.

Snapshots are JSON-safe dictionaries; they travel inside runtime
checkpoints, over the worker acknowledgement pipes, and out through the
exporters.  ``restore`` and ``reset`` mutate children **in place** so
references cached by instrumented code stay live across a checkpoint restore.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "filter_snapshot",
    "histogram_quantile",
    "label_snapshot",
    "merge_snapshots",
    "snapshot_quantile",
    "snapshot_value",
]

#: Snapshot schema version, bumped on incompatible layout changes.
REGISTRY_VERSION = 1

#: Fixed log-spaced latency bucket upper bounds in seconds: 1 microsecond to
#: 1000 seconds, four buckets per decade (ratio ~1.78).  Every process uses
#: the same bounds, which is what makes histograms mergeable.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 4.0) * 1e-6, 12) for exponent in range(37)
)


class _ValueChild:
    """A single counter or gauge time series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class _HistogramChild:
    """A single histogram time series over fixed bucket bounds."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        # one slot per bound plus the overflow bucket
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        self.sum += value * count
        self.count += count
        # first bound with value <= bound; the C bisect keeps this cheap
        # enough for one observation per event on the hot path
        self.counts[bisect_left(self.bounds, value)] += count

    def quantile(self, q: float) -> float:
        return histogram_quantile(self.bounds, self.counts, q)

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


def histogram_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile (``0 <= q <= 1``) from bucket counts.

    Interpolates linearly inside the bucket that contains the target rank;
    observations in the overflow bucket clamp to the highest finite bound.
    Returns ``0.0`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= rank:
            if index >= len(bounds):  # overflow bucket
                return float(bounds[-1]) if bounds else 0.0
            lower = bounds[index - 1] if index else 0.0
            upper = bounds[index]
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += bucket_count
    return float(bounds[-1]) if bounds else 0.0


class _Family:
    """Base class: a named metric plus its cached children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str]):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._default = self.labels()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values, **kv):
        """Return the (cached) child for one concrete label assignment."""
        if kv:
            if values:
                raise ValueError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name!r} expects labels {self.labelnames!r}"
                ) from exc
            if len(kv) != len(self.labelnames):
                raise ValueError(
                    f"metric {self.name!r} expects labels {self.labelnames!r}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects {len(self.labelnames)} "
                f"label values, got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._new_child()
        return child

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return self._children.items()

    def reset(self) -> None:
        for child in self._children.values():
            child.reset()


class Counter(_Family):
    """Monotonically increasing value (restore may set it backwards)."""

    kind = "counter"

    def _new_child(self) -> _ValueChild:
        return _ValueChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    @property
    def value(self) -> float:
        return self._default.value


class Gauge(_Family):
    """A value that can go up and down (queue depth, selectivity)."""

    kind = "gauge"

    def _new_child(self) -> _ValueChild:
        return _ValueChild()

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    @property
    def value(self) -> float:
        return self._default.value


class Histogram(_Family):
    """Distribution over fixed log-spaced buckets; mergeable by addition."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        super().__init__(name, help, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float, count: int = 1) -> None:
        self._default.observe(value, count)

    def quantile(self, q: float) -> float:
        return self._default.quantile(q)


_KINDS = {family.kind: family for family in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named collection of metric families with snapshot/restore/merge.

    ``counter``/``gauge``/``histogram`` are idempotent get-or-create: asking
    twice for the same name returns the same family (and raises if the kind
    or label schema disagrees), so independent modules can share a registry
    without coordination.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- family creation ---------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labelnames, **extra):
        family = self._families.get(name)
        if family is not None:
            if family.kind != cls.kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames!r}"
                )
            return family
        family = self._families[name] = cls(name, help, labelnames, **extra)
        return family

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def families(self) -> Iterable[_Family]:
        return self._families.values()

    # -- snapshot / restore / merge ---------------------------------------

    def snapshot(self) -> dict:
        """Return the registry as a JSON-safe dictionary."""
        families = {}
        for name, family in self._families.items():
            entry = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
            }
            if family.kind == "histogram":
                entry["bounds"] = list(family.bounds)
                entry["children"] = [
                    {
                        "labels": list(values),
                        "counts": list(child.counts),
                        "sum": child.sum,
                        "count": child.count,
                    }
                    for values, child in family.children()
                ]
            else:
                entry["children"] = [
                    {"labels": list(values), "value": child.value}
                    for values, child in family.children()
                ]
            families[name] = entry
        return {"version": REGISTRY_VERSION, "families": families}

    def restore(self, state: Optional[dict]) -> None:
        """Replace every value with ``state``'s, creating missing families.

        Children are mutated in place so references cached by instrumented
        code keep pointing at live series.  ``None`` (or a snapshot from an
        older checkpoint without registry data) resets the registry.
        """
        self.reset()
        if not state:
            return
        version = state.get("version")
        if version != REGISTRY_VERSION:
            raise ValueError(f"cannot restore registry snapshot v{version!r}")
        self._absorb(state, replace=True)

    def merge(self, state: Optional[dict]) -> None:
        """Add ``state``'s counters/histograms into this registry.

        Counters and histogram buckets add; gauges take the incoming value
        (label sets are disjoint across processes in practice, so "last
        writer wins" never loses information).
        """
        if not state:
            return
        self._absorb(state, replace=False)

    def _absorb(self, state: dict, replace: bool) -> None:
        for name, entry in state.get("families", {}).items():
            kind = entry.get("kind")
            cls = _KINDS.get(kind)
            if cls is None:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            labelnames = tuple(entry.get("labels", ()))
            if cls is Histogram:
                family = self.histogram(
                    name, entry.get("help", ""), labelnames,
                    buckets=entry.get("bounds", DEFAULT_LATENCY_BUCKETS),
                )
            else:
                family = self._get_or_create(
                    cls, name, entry.get("help", ""), labelnames
                )
            for child_state in entry.get("children", ()):
                child = family.labels(*child_state.get("labels", ()))
                if cls is Histogram:
                    counts = child_state.get("counts", ())
                    if len(counts) != len(child.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket layout changed; "
                            "snapshots are not mergeable"
                        )
                    if replace:
                        child.counts = list(counts)
                        child.sum = float(child_state.get("sum", 0.0))
                        child.count = int(child_state.get("count", 0))
                    else:
                        child.counts = [
                            mine + theirs
                            for mine, theirs in zip(child.counts, counts)
                        ]
                        child.sum += float(child_state.get("sum", 0.0))
                        child.count += int(child_state.get("count", 0))
                else:
                    value = float(child_state.get("value", 0.0))
                    if replace or cls is Gauge:
                        child.set(value)
                    else:
                        child.inc(value)

    def reset(self) -> None:
        """Zero every child in place (families and children survive)."""
        for family in self._families.values():
            family.reset()


def merge_snapshots(*snapshots: Optional[dict]) -> dict:
    """Merge registry snapshots into one (see :meth:`MetricsRegistry.merge`)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


def label_snapshot(snapshot: Optional[dict], **labels: str) -> dict:
    """Return a copy of ``snapshot`` with extra labels on every family.

    The new label names are prepended to each family's label schema and the
    corresponding (stringified) values to each child's label values, leaving
    the input untouched.  This is how a multi-tenant server namespaces the
    per-job registries it collects: labelling each job's
    ``registry_snapshot()`` with ``job_id=...`` keeps every existing metric
    family intact while making the merged, server-wide snapshot filterable
    per tenant (see :func:`filter_snapshot`).  Because label sets stay
    disjoint across jobs, the labelled snapshots merge losslessly through
    :func:`merge_snapshots`.
    """
    if not labels:
        raise ValueError("label_snapshot needs at least one label")
    if not snapshot:
        return {"version": REGISTRY_VERSION, "families": {}}
    names = tuple(labels)
    values = [str(labels[name]) for name in names]
    families = {}
    for name, entry in snapshot.get("families", {}).items():
        existing = entry.get("labels", [])
        overlap = set(names) & set(existing)
        if overlap:
            raise ValueError(
                f"family {name!r} already carries label(s) {sorted(overlap)!r}"
            )
        labelled = dict(entry)
        labelled["labels"] = list(names) + list(existing)
        labelled["children"] = [
            {**child, "labels": values + list(child.get("labels", []))}
            for child in entry.get("children", ())
        ]
        families[name] = labelled
    return {**snapshot, "families": families}


def filter_snapshot(snapshot: Optional[dict], **labels: str) -> dict:
    """Keep only the children whose labels match ``labels``.

    The complement of :func:`label_snapshot`: given a server-wide snapshot
    whose families carry a ``job_id`` label, ``filter_snapshot(snap,
    job_id="j-1")`` returns one tenant's view.  Families without a requested
    label name are dropped entirely; matching families keep their full label
    schema (including the matched labels), so the result is still a valid
    snapshot for :func:`snapshot_value` / :func:`snapshot_quantile` lookups.
    """
    if not labels:
        raise ValueError("filter_snapshot needs at least one label")
    if not snapshot:
        return {"version": REGISTRY_VERSION, "families": {}}
    wanted = {name: str(value) for name, value in labels.items()}
    families = {}
    for name, entry in snapshot.get("families", {}).items():
        schema = list(entry.get("labels", []))
        if not set(wanted) <= set(schema):
            continue
        positions = [(schema.index(key), value) for key, value in wanted.items()]
        children = [
            child
            for child in entry.get("children", ())
            if all(
                child.get("labels", [])[index] == value
                for index, value in positions
            )
        ]
        if children:
            families[name] = {**entry, "children": children}
    return {**snapshot, "families": families}


def snapshot_value(
    snapshot: dict, name: str, labels: Sequence[str] = ()
) -> Optional[float]:
    """Read one counter/gauge child out of a snapshot (``None`` if absent)."""
    entry = snapshot.get("families", {}).get(name)
    if entry is None:
        return None
    wanted = [str(value) for value in labels]
    for child in entry.get("children", ()):
        if child.get("labels", []) == wanted:
            return child.get("value")
    return None


def snapshot_quantile(
    snapshot: dict, name: str, q: float, labels: Optional[Sequence[str]] = None
) -> Optional[float]:
    """Estimate a quantile from a histogram family inside a snapshot.

    With ``labels`` the single matching child is used; without, all children
    of the family are merged first (their buckets add -- the point of fixed
    bounds).  Returns ``None`` when the family is absent or empty.
    """
    entry = snapshot.get("families", {}).get(name)
    if entry is None or entry.get("kind") != "histogram":
        return None
    bounds = entry.get("bounds", ())
    counts: Optional[List[int]] = None
    wanted = None if labels is None else [str(value) for value in labels]
    for child in entry.get("children", ()):
        if wanted is not None and child.get("labels", []) != wanted:
            continue
        child_counts = child.get("counts", ())
        if counts is None:
            counts = list(child_counts)
        else:
            counts = [mine + theirs for mine, theirs in zip(counts, child_counts)]
    if counts is None or not sum(counts):
        return None
    return histogram_quantile(bounds, counts, q)
