"""Experiment harness: sweeps, result tables and text rendering.

The paper's evaluation is a family of parameter sweeps: run an algorithm at
several storage budgets (or thresholds, or window sizes) and record, for
every resulting storage plan, the total storage cost and the sum/max of the
recreation costs.  This module provides the shared machinery:

* :class:`SweepPoint` / :class:`SweepSeries` — one algorithm's curve in a
  figure;
* :func:`sweep_lmg`, :func:`sweep_mp`, :func:`sweep_last`, :func:`sweep_gith`
  — produce those curves exactly the way the paper parameterizes each
  algorithm;
* :func:`budget_grid` — the relative storage budgets (multiples of the
  MCA/MST cost) shared by the figures;
* :func:`format_table` — plain-text rendering used by the benchmark output
  and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..algorithms.gith import git_heuristic_plan
from ..algorithms.last import last_plan
from ..algorithms.lmg import local_move_greedy
from ..algorithms.mp import minimum_feasible_threshold, modified_prim
from ..algorithms.mst import minimum_storage_plan
from ..algorithms.shortest_path import shortest_path_plan
from ..core.instance import ProblemInstance
from ..core.storage_plan import StoragePlan

__all__ = [
    "SweepPoint",
    "SweepSeries",
    "reference_costs",
    "budget_grid",
    "sweep_lmg",
    "sweep_mp",
    "sweep_last",
    "sweep_gith",
    "format_table",
]


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter, plan metrics) sample of a sweep."""

    parameter: float
    storage_cost: float
    sum_recreation: float
    max_recreation: float
    weighted_recreation: float


@dataclass
class SweepSeries:
    """A named curve: one algorithm swept over a parameter grid."""

    algorithm: str
    points: list[SweepPoint] = field(default_factory=list)

    def add(self, parameter: float, plan: StoragePlan, instance: ProblemInstance) -> None:
        """Evaluate ``plan`` and append a sweep point."""
        metrics = plan.evaluate(instance)
        self.points.append(
            SweepPoint(
                parameter=float(parameter),
                storage_cost=metrics.storage_cost,
                sum_recreation=metrics.sum_recreation,
                max_recreation=metrics.max_recreation,
                weighted_recreation=metrics.weighted_recreation,
            )
        )

    @property
    def sum_recreations(self) -> list[float]:
        """Sum-of-recreation cost of every point, in sweep order."""
        return [point.sum_recreation for point in self.points]

    @property
    def max_recreations(self) -> list[float]:
        """Max-recreation cost of every point, in sweep order."""
        return [point.max_recreation for point in self.points]

    def best_sum_recreation_within(self, storage_budget: float) -> float | None:
        """Smallest sum-recreation among points within ``storage_budget``."""
        feasible = [
            point.sum_recreation
            for point in self.points
            if point.storage_cost <= storage_budget * (1 + 1e-9)
        ]
        return min(feasible) if feasible else None


def reference_costs(instance: ProblemInstance) -> dict[str, float]:
    """The MCA/SPT reference lines drawn in every figure of the paper."""
    mca = minimum_storage_plan(instance).evaluate(instance)
    spt = shortest_path_plan(instance).evaluate(instance)
    return {
        "mca_storage": mca.storage_cost,
        "mca_sum_recreation": mca.sum_recreation,
        "mca_max_recreation": mca.max_recreation,
        "spt_storage": spt.storage_cost,
        "spt_sum_recreation": spt.sum_recreation,
        "spt_max_recreation": spt.max_recreation,
    }


def budget_grid(
    instance: ProblemInstance, factors: Sequence[float] = (1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
) -> list[float]:
    """Storage budgets as multiples of the minimum (MCA/MST) storage cost."""
    minimum = minimum_storage_plan(instance).storage_cost(instance)
    return [minimum * factor for factor in factors]


def sweep_lmg(
    instance: ProblemInstance,
    budgets: Iterable[float] | None = None,
    *,
    use_workload: bool = True,
) -> SweepSeries:
    """LMG swept over storage budgets (its natural parameter)."""
    series = SweepSeries(algorithm="LMG")
    for budget in budgets if budgets is not None else budget_grid(instance):
        plan = local_move_greedy(instance, budget, use_workload=use_workload)
        series.add(budget, plan, instance)
    return series


def sweep_mp(
    instance: ProblemInstance,
    thresholds: Iterable[float] | None = None,
) -> SweepSeries:
    """MP swept over max-recreation thresholds (its natural parameter)."""
    series = SweepSeries(algorithm="MP")
    if thresholds is None:
        minimum = minimum_feasible_threshold(instance)
        thresholds = [minimum * factor for factor in (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)]
    for threshold in thresholds:
        plan = modified_prim(instance, threshold, strict=False)
        series.add(threshold, plan, instance)
    return series


def sweep_last(
    instance: ProblemInstance, alphas: Iterable[float] = (1.2, 1.5, 2.0, 3.0, 5.0)
) -> SweepSeries:
    """LAST swept over its balance parameter α."""
    series = SweepSeries(algorithm="LAST")
    for alpha in alphas:
        plan = last_plan(instance, alpha)
        series.add(alpha, plan, instance)
    return series


def sweep_gith(
    instance: ProblemInstance,
    windows: Iterable[int] = (5, 10, 25, 50),
    max_depth: int = 50,
) -> SweepSeries:
    """GitH swept over window sizes (the knob the paper varies for BF)."""
    series = SweepSeries(algorithm="GitH")
    for window in windows:
        plan = git_heuristic_plan(instance, window=window, max_depth=max_depth)
        series.add(float(window), plan, instance)
    return series


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, precision: int = 3
) -> str:
    """Render a plain-text table (used by benches and examples).

    Floats are shown with ``precision`` significant digits in engineering
    style; everything else is converted with ``str``.
    """
    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}g}"
        return str(value)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * widths[index] for index in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)
