"""Experiment runner: every table and figure of the evaluation, in one place.

Each entry of :data:`EXPERIMENTS` reproduces one artefact of the paper's
evaluation section (or one ablation added by this reproduction).  Running an
experiment yields an :class:`ExperimentOutcome` with

* the paper's claim for that artefact,
* the measured tables (text, in the shape of the paper's charts), and
* computed findings (speed-ups, memory ratios, DNF points) that state
  whether the *shape* of the paper's result holds on this machine.

:func:`run_experiments` executes any subset and
:func:`render_experiments_markdown` turns the outcomes into the
``EXPERIMENTS.md`` document.  The ``scale`` knob
keeps a full run in the minutes range on a laptop (``quick``) or pushes the
sweeps to the largest sizes that still terminate overnight (``full``).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.analyzer.cost import table3
from repro.analyzer.granularity import granularity_table
from repro.analyzer.plan import plan_query
from repro.baselines.registry import available_approaches
from repro.bench.ablation import (
    mixed_vs_event_workload,
    run_ablation_sweep,
    summarize_ablation,
    type_vs_event_workload,
)
from repro.bench.harness import sweep
from repro.bench.metrics import RunMetrics, RunStatus, memory_reduction, speedup
from repro.bench.plots import chart_results
from repro.bench.reporting import format_capability_table, format_series_table
from repro.bench.workloads import (
    figure10_grouping_workload,
    figure5_contiguous_workload,
    figure6_next_match_workload,
    figure7_any_all_workload,
    figure8_any_online_workload,
    figure9_selectivity_workload,
)
from repro.core.base import create_aggregator
from repro.datasets.queries import running_example_stream
from repro.query.aggregates import count_star
from repro.query.ast import KleenePlus, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.predicates import AdjacentPredicate

#: Default cost budget (constructed trends) for the two-step baselines.
DEFAULT_BUDGET = 50_000

#: Sweep sizes per scale.  ``quick`` finishes in a few minutes; ``full``
#: matches the sizes used by the checked-in benchmark suite or larger.
SCALES: Dict[str, Dict[str, Sequence]] = {
    "quick": {
        "figure5": (250, 500, 1000),
        "figure6": (250, 500, 1000),
        "figure7": (60, 120, 240),
        "figure8": (500, 1000, 2000),
        "figure9": (0.1, 0.5, 0.9),
        "figure10": (5, 15, 30),
        "ablation_type": (250, 500, 1000),
        "ablation_mixed": (200, 400),
    },
    "full": {
        "figure5": (500, 1000, 2000, 4000),
        "figure6": (500, 1000, 2000, 4000),
        "figure7": (100, 200, 400, 800),
        "figure8": (1000, 2000, 4000, 8000),
        "figure9": (0.1, 0.3, 0.5, 0.7, 0.9),
        "figure10": (5, 10, 20, 30),
        "ablation_type": (500, 1000, 2000, 4000),
        "ablation_mixed": (400, 800, 1600),
    },
}


@dataclass
class ExperimentOutcome:
    """Measured reproduction of one table or figure."""

    key: str
    artefact: str
    title: str
    paper_claim: str
    tables: List[str] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)
    results: List[RunMetrics] = field(default_factory=list)

    def to_markdown(self) -> str:
        """One EXPERIMENTS.md section for this outcome."""
        lines = [f"## {self.artefact} — {self.title}", ""]
        lines.append(f"**Paper:** {self.paper_claim}")
        lines.append("")
        if self.findings:
            lines.append("**Measured:**")
            lines.append("")
            for finding in self.findings:
                lines.append(f"- {finding}")
            lines.append("")
        for table in self.tables:
            lines.append("```")
            lines.append(table)
            lines.append("```")
            lines.append("")
        return "\n".join(lines)


@dataclass
class ExperimentSpec:
    """Definition of one experiment: metadata plus a runner callable."""

    key: str
    artefact: str
    title: str
    paper_claim: str
    runner: Callable[[str, int], ExperimentOutcome]

    def run(self, scale: str = "quick", budget: int = DEFAULT_BUDGET) -> ExperimentOutcome:
        """Execute the experiment at the given scale."""
        return self.runner(scale, budget)


# ---------------------------------------------------------------------------
# findings helpers
# ---------------------------------------------------------------------------


def _largest_common_parameter(results: Sequence[RunMetrics], left: str, right: str):
    """Largest swept parameter at which both approaches finished."""
    finished = {
        (r.approach, r.parameter): r for r in results if r.status is RunStatus.OK
    }
    common = [
        r.parameter
        for (approach, parameter), r in finished.items()
        if approach == left and (right, parameter) in finished
    ]
    if not common:
        return None
    try:
        return max(common)
    except TypeError:
        return common[-1]


def _compare_finding(results: Sequence[RunMetrics], baseline: str, contender: str) -> Optional[str]:
    """State the speed-up and memory ratio of ``contender`` over ``baseline``."""
    parameter = _largest_common_parameter(results, baseline, contender)
    if parameter is None:
        return None
    base = next(
        r for r in results if r.approach == baseline and r.parameter == parameter and r.finished
    )
    other = next(
        r for r in results if r.approach == contender and r.parameter == parameter and r.finished
    )
    ratio = speedup(base, other)
    memory = memory_reduction(base, other)
    parts = [f"vs {baseline} at sweep point {parameter}"]
    if ratio is not None:
        parts.append(f"{ratio:,.0f}x faster" if ratio >= 1 else f"{1 / ratio:,.1f}x slower")
    if memory is not None and memory > 0:
        parts.append(
            f"{memory:,.0f}x less storage" if memory >= 1 else f"{1 / memory:,.1f}x more storage"
        )
    return f"{contender} " + ", ".join(parts) + "."


def _dnf_finding(results: Sequence[RunMetrics]) -> List[str]:
    """Report which approaches stopped terminating, and where."""
    findings = []
    for approach in sorted({r.approach for r in results}):
        failed = [r.parameter for r in results if r.approach == approach and r.status is RunStatus.DID_NOT_FINISH]
        unsupported = any(r.status is RunStatus.UNSUPPORTED for r in results if r.approach == approach)
        if failed:
            findings.append(
                f"{approach} did not finish from parameter {failed[0]} onwards "
                "(cost budget exceeded, reported like the paper's non-terminating runs)."
            )
        elif unsupported:
            findings.append(f"{approach} cannot express this query (Table 9).")
    return findings


def _sweep_outcome(
    spec_key: str,
    artefact: str,
    title: str,
    paper_claim: str,
    results: List[RunMetrics],
    parameter_label: str,
    chart_metric: str = "latency_ms",
) -> ExperimentOutcome:
    """Standard rendering of a sweep experiment."""
    outcome = ExperimentOutcome(
        key=spec_key, artefact=artefact, title=title, paper_claim=paper_claim, results=results
    )
    for metric in ("latency (ms)", "stored units", "throughput (events/s)"):
        outcome.tables.append(
            format_series_table(
                f"{artefact} — {metric}", results, metric=metric, parameter_label=parameter_label
            )
        )
    outcome.tables.append(
        chart_results(results, metric=chart_metric, title=f"{artefact} — {chart_metric}", x_label=parameter_label)
    )
    cogra_findings = [
        finding
        for baseline in sorted({r.approach for r in results if r.approach != "cogra"})
        for finding in [_compare_finding(results, baseline, "cogra")]
        if finding
    ]
    outcome.findings.extend(cogra_findings)
    outcome.findings.extend(_dnf_finding(results))
    return outcome


# ---------------------------------------------------------------------------
# figure experiments
# ---------------------------------------------------------------------------


def _run_figure5(scale: str, budget: int) -> ExperimentOutcome:
    points = figure5_contiguous_workload(event_counts=SCALES[scale]["figure5"])
    results = sweep(available_approaches(), points, cost_budget=budget)
    return _sweep_outcome(
        "figure5",
        "Figure 5",
        "Contiguous semantics, physical activity data, all approaches",
        "Two-step approaches remain feasible under the contiguous semantics; COGRA still "
        "achieves a 27-fold speed-up over Flink and 12-fold over SASE at 100M events.",
        results,
        "events per window",
    )


def _run_figure6(scale: str, budget: int) -> ExperimentOutcome:
    points = figure6_next_match_workload(event_counts=SCALES[scale]["figure6"])
    results = sweep(available_approaches(), points, cost_budget=budget)
    return _sweep_outcome(
        "figure6",
        "Figure 6",
        "Skip-till-next-match, public transportation data",
        "SASE stops terminating beyond 4M events per window; COGRA wins 4 orders of "
        "magnitude in latency and 5 in memory at that point.",
        results,
        "events per window",
    )


def _run_figure7(scale: str, budget: int) -> ExperimentOutcome:
    points = figure7_any_all_workload(event_counts=SCALES[scale]["figure7"])
    results = sweep(available_approaches(), points, cost_budget=budget)
    return _sweep_outcome(
        "figure7",
        "Figure 7",
        "Skip-till-any-match, stock data, all approaches",
        "Flink and SASE blow up exponentially and stop terminating beyond 40k events; "
        "COGRA achieves 4 orders of magnitude speed-up and 8 orders of magnitude memory "
        "reduction over Flink at 40k events.",
        results,
        "events per window",
    )


def _run_figure8(scale: str, budget: int) -> ExperimentOutcome:
    points = figure8_any_online_workload(event_counts=SCALES[scale]["figure8"])
    results = sweep(["greta", "aseq", "cogra"], points, cost_budget=budget)
    return _sweep_outcome(
        "figure8",
        "Figure 8",
        "Skip-till-any-match, stock data, online approaches at higher rates",
        "GRETA stops terminating beyond 20M events (over an hour of delay); A-Seq stays "
        "3-4 orders of magnitude behind; COGRA answers within 3 seconds at 100M events "
        "with constant memory.",
        results,
        "events per window",
    )


def _run_figure9(scale: str, budget: int) -> ExperimentOutcome:
    points = figure9_selectivity_workload(selectivities=SCALES[scale]["figure9"])
    results = sweep(["flink", "sase", "greta", "cogra"], points, cost_budget=budget)
    outcome = _sweep_outcome(
        "figure9",
        "Figure 9",
        "Predicate selectivity sweep, stock data",
        "Flink fails beyond 50% selectivity; COGRA wins 3 orders of magnitude over Flink at "
        "50% and double the speed and memory of GRETA at 90% selectivity.",
        results,
        "predicate selectivity",
    )
    return outcome


def _run_figure10(scale: str, budget: int) -> ExperimentOutcome:
    points = figure10_grouping_workload(group_counts=SCALES[scale]["figure10"])
    results = sweep(available_approaches(), points, cost_budget=budget)
    return _sweep_outcome(
        "figure10",
        "Figure 10",
        "Number of trend groups, public transportation data",
        "Flink fails below 15 groups and SASE below 25; latency of every approach drops as "
        "the number of groups grows; COGRA wins 5 orders of magnitude in latency and 8 in "
        "memory over Flink at 15 groups.",
        results,
        "trend groups",
    )


# ---------------------------------------------------------------------------
# table experiments
# ---------------------------------------------------------------------------


def _running_example_trace(semantics: str, predicate=None) -> List[str]:
    """Final counts of the running example at the granularity the plan selects."""
    builder = (
        QueryBuilder("running-example")
        .pattern(KleenePlus(sequence(kleene_plus("A"), atom("B"))))
        .semantics(semantics)
        .aggregate(count_star())
    )
    if predicate is not None:
        builder.where_adjacent(predicate)
    query = builder.build()
    plan = plan_query(query)
    aggregator = create_aggregator(plan)
    rows = [f"{'event':>6}  {'final count':>11}   (granularity: {plan.granularity.value})"]
    for event in running_example_stream():
        aggregator.process(event)
        label = f"{event.event_type.lower()}{event.time:g}"
        rows.append(f"{label:>6}  {aggregator.final_accumulator().trend_count:>11}")
    return rows


def _run_running_example(scale: str, budget: int) -> ExperimentOutcome:
    table6_predicate = AdjacentPredicate(
        "B", "A", lambda b, a: not (b.time == 6.0 and a.time == 7.0), "Table 6 restriction"
    )
    outcome = ExperimentOutcome(
        key="tables567",
        artefact="Tables 5-7",
        title="Running example (SEQ(A+,B))+ over a1 b2 a3 a4 c5 b6 a7 b8",
        paper_claim="43 trends under skip-till-any-match (Table 5), 33 with the Table 6 "
        "adjacency restriction, 8 under skip-till-next-match and 2 under the contiguous "
        "semantics (Table 7).",
    )
    any_rows = _running_example_trace("skip-till-any-match")
    mixed_rows = _running_example_trace("skip-till-any-match", table6_predicate)
    next_rows = _running_example_trace("skip-till-next-match")
    cont_rows = _running_example_trace("contiguous")
    outcome.tables.append("Table 5 (type granularity)\n" + "\n".join(any_rows))
    outcome.tables.append("Table 6 (mixed granularity)\n" + "\n".join(mixed_rows))
    outcome.tables.append(
        "Table 7 (pattern granularity)\nNEXT:\n"
        + "\n".join(next_rows)
        + "\nCONT:\n"
        + "\n".join(cont_rows)
    )
    final_counts = {
        "ANY": int(any_rows[-1].split()[1]),
        "ANY+θ": int(mixed_rows[-1].split()[1]),
        "NEXT": int(next_rows[-1].split()[1]),
        "CONT": int(cont_rows[-1].split()[1]),
    }
    outcome.findings.append(
        "Final counts measured: "
        + ", ".join(f"{name}={value}" for name, value in final_counts.items())
        + " (paper: ANY=43, ANY+θ=33, NEXT=8, CONT=2)."
    )
    return outcome


def _format_mapping_table(title: str, rows: Iterable[Sequence[str]]) -> str:
    rows = [list(row) for row in rows]
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    lines = [title]
    for index, row in enumerate(rows):
        lines.append("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _run_static_tables(scale: str, budget: int) -> ExperimentOutcome:
    outcome = ExperimentOutcome(
        key="tables349",
        artefact="Tables 3, 4 and 9",
        title="Trend-count growth, granularity selection and expressive power",
        paper_claim="Table 3: trend counts grow exponentially only for Kleene patterns under "
        "skip-till-any-match. Table 4: granularity is type/mixed under ANY and pattern under "
        "NEXT/CONT. Table 9: only COGRA combines Kleene closure, all three semantics, "
        "adjacent predicates and online trend aggregation.",
    )
    growth = table3()
    outcome.tables.append(
        _format_mapping_table(
            "Table 3: number of trends in the number of events",
            [["semantics", "sequence pattern", "Kleene pattern"]]
            + [
                [semantics, growth[(semantics, "sequence")], growth[(semantics, "kleene")]]
                for semantics in ("ANY", "NEXT", "CONT")
            ],
        )
    )
    selection = granularity_table()
    outcome.tables.append(
        _format_mapping_table(
            "Table 4: granularity selection",
            [["semantics", "without adjacent predicates", "with adjacent predicates"]]
            + [
                [semantics, selection[(semantics, False)], selection[(semantics, True)]]
                for semantics in ("ANY", "NEXT", "CONT")
            ],
        )
    )
    outcome.tables.append(format_capability_table())
    outcome.findings.append("All three matrices are computed from the implementation itself.")
    return outcome


def _run_ablation(scale: str, budget: int) -> ExperimentOutcome:
    type_results = run_ablation_sweep(
        type_vs_event_workload(event_counts=SCALES[scale]["ablation_type"])
    )
    mixed_results = run_ablation_sweep(
        mixed_vs_event_workload(event_counts=SCALES[scale]["ablation_mixed"])
    )
    outcome = ExperimentOutcome(
        key="ablation",
        artefact="Ablation",
        title="Granularity ablation on the same executor (this reproduction)",
        paper_claim="The paper attributes COGRA's wins over GRETA to the coarser granularity; "
        "the ablation isolates that choice by forcing the same executor to run at finer "
        "granularities.",
        results=type_results + mixed_results,
    )
    for label, results in (("type-eligible query", type_results), ("mixed-eligible query", mixed_results)):
        for metric in ("latency (ms)", "stored units"):
            outcome.tables.append(
                format_series_table(
                    f"Ablation ({label}) — {metric}",
                    results,
                    metric=metric,
                    parameter_label="events per window",
                )
            )
    summary = summarize_ablation(type_results)
    if "cogra[type]" in summary and "cogra[event]" in summary:
        type_storage = summary["cogra[type]"]["storage_units"]
        event_storage = summary["cogra[event]"]["storage_units"]
        if type_storage:
            outcome.findings.append(
                f"Type granularity stores {event_storage / type_storage:,.0f}x fewer units than "
                "event granularity on the same query and stream."
            )
        type_latency = summary["cogra[type]"]["latency_ms"]
        event_latency = summary["cogra[event]"]["latency_ms"]
        if type_latency:
            outcome.findings.append(
                f"Type granularity is {event_latency / type_latency:,.1f}x faster than event "
                "granularity on average over the sweep."
            )
    return outcome


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.key: spec
    for spec in (
        ExperimentSpec(
            "figure5",
            "Figure 5",
            "Contiguous semantics (all approaches)",
            "COGRA achieves 27x over Flink and 12x over SASE at 100M events.",
            _run_figure5,
        ),
        ExperimentSpec(
            "figure6",
            "Figure 6",
            "Skip-till-next-match (public transportation)",
            "SASE does not terminate beyond 4M events; COGRA wins 4 orders of magnitude.",
            _run_figure6,
        ),
        ExperimentSpec(
            "figure7",
            "Figure 7",
            "Skip-till-any-match (all approaches)",
            "Two-step approaches stop terminating; COGRA wins up to 4 orders of magnitude.",
            _run_figure7,
        ),
        ExperimentSpec(
            "figure8",
            "Figure 8",
            "Skip-till-any-match (online approaches)",
            "GRETA and A-Seq fall behind COGRA by 3-4 orders of magnitude at high rates.",
            _run_figure8,
        ),
        ExperimentSpec(
            "figure9",
            "Figure 9",
            "Predicate selectivity",
            "Flink fails beyond 50% selectivity; COGRA beats GRETA 2x at 90%.",
            _run_figure9,
        ),
        ExperimentSpec(
            "figure10",
            "Figure 10",
            "Event trend grouping",
            "Two-step approaches fail for few groups; COGRA is insensitive to the group count.",
            _run_figure10,
        ),
        ExperimentSpec(
            "tables567",
            "Tables 5-7",
            "Running example counts",
            "ANY=43, ANY+θ=33, NEXT=8, CONT=2.",
            _run_running_example,
        ),
        ExperimentSpec(
            "tables349",
            "Tables 3, 4 and 9",
            "Static matrices",
            "Growth classes, granularity selection and expressive power.",
            _run_static_tables,
        ),
        ExperimentSpec(
            "ablation",
            "Ablation",
            "Granularity ablation",
            "Coarse granularity is the source of COGRA's wins.",
            _run_ablation,
        ),
    )
}


def run_experiments(
    keys: Optional[Iterable[str]] = None,
    scale: str = "quick",
    budget: int = DEFAULT_BUDGET,
) -> List[ExperimentOutcome]:
    """Run the selected experiments (all of them by default)."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
    selected = list(keys) if keys is not None else list(EXPERIMENTS)
    outcomes = []
    for key in selected:
        if key not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {key!r}; available: {sorted(EXPERIMENTS)}")
        outcomes.append(EXPERIMENTS[key].run(scale=scale, budget=budget))
    return outcomes


def render_experiments_markdown(
    outcomes: Sequence[ExperimentOutcome],
    scale: str = "quick",
    generated_on: Optional[str] = None,
) -> str:
    """Render ``EXPERIMENTS.md`` from a list of outcomes."""
    generated_on = generated_on or datetime.date.today().isoformat()
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of every table and figure of the evaluation section of",
        '*"Event Trend Aggregation Under Rich Event Matching Semantics"* (Poppe et al.).',
        "",
        f"Generated by `python -m repro.cli experiments --scale {scale}` on {generated_on}.",
        "",
        "Absolute numbers are not comparable to the paper's 16-core, 128 GB JVM testbed —",
        "the reproduction is a single-process pure-Python engine over synthetic versions of",
        "the paper's data sets, and the sweeps stop at laptop-scale event counts (cost budgets",
        "turn would-be multi-hour runs into `DNF` rows, exactly how the paper reports",
        "non-terminating configurations).  What is compared is the *shape* of every result:",
        "which approach wins, by roughly what factor, and where approaches stop terminating.",
        "",
    ]
    for outcome in outcomes:
        lines.append(outcome.to_markdown())
    return "\n".join(lines)
