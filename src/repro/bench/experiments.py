"""One driver per paper table/figure, indexed E1–E8 by the section comments.

Each function takes pre-built :class:`~repro.datagen.scenarios.ScenarioDataset`
objects (or builds small default ones), runs the relevant algorithms and
returns plain dictionaries/lists that the benchmark targets print and assert
on.  Keeping the drivers here — rather than inside the pytest-benchmark
files — makes them reusable from the examples and from interactive sessions.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from ..algorithms.gith import git_heuristic_plan
from ..algorithms.ilp import solve_ilp_max_recreation
from ..algorithms.last import last_plan
from ..algorithms.lmg import local_move_greedy
from ..algorithms.mp import minimum_feasible_threshold, modified_prim
from ..algorithms.mst import minimum_storage_plan
from ..algorithms.shortest_path import shortest_path_plan
from ..baselines.gzip_baseline import gzip_cost_report
from ..baselines.naive import materialize_all_plan
from ..baselines.svn_skip_delta import svn_skip_delta_report
from ..core.instance import ProblemInstance
from ..datagen.scenarios import ScenarioDataset
from ..datagen.workload import normalize_workload, zipfian_workload
from .harness import (
    SweepSeries,
    budget_grid,
    reference_costs,
    sweep_gith,
    sweep_last,
    sweep_lmg,
    sweep_mp,
)

__all__ = [
    "figure12_dataset_properties",
    "section52_vcs_comparison",
    "figure13_directed_sum_recreation",
    "figure14_directed_max_recreation",
    "figure15_undirected",
    "figure16_workload_aware",
    "figure17_running_times",
    "table2_ilp_vs_mp",
]


# --------------------------------------------------------------------- #
# E1 — Figure 12
# --------------------------------------------------------------------- #
def figure12_dataset_properties(
    datasets: Mapping[str, ScenarioDataset]
) -> dict[str, dict[str, float]]:
    """Dataset property table: versions, deltas, MCA and SPT costs."""
    return {name: dataset.summary() for name, dataset in datasets.items()}


# --------------------------------------------------------------------- #
# E2 — Section 5.2
# --------------------------------------------------------------------- #
def section52_vcs_comparison(dataset: ScenarioDataset) -> dict[str, dict[str, float]]:
    """Compare gzip, SVN skip-delta, GitH and MCA on an LF-style dataset."""
    instance = dataset.instance
    results: dict[str, dict[str, float]] = {}

    naive = materialize_all_plan(instance).evaluate(instance)
    results["naive"] = naive.as_dict()

    results["gzip"] = gzip_cost_report(instance).as_dict()
    results["svn_skip_delta"] = svn_skip_delta_report(instance).as_dict()

    gith = git_heuristic_plan(instance, window=25, max_depth=50).evaluate(instance)
    results["gith"] = gith.as_dict()

    mca = minimum_storage_plan(instance).evaluate(instance)
    results["mca"] = mca.as_dict()
    return results


# --------------------------------------------------------------------- #
# E3 / E4 — Figures 13 and 14 (directed case)
# --------------------------------------------------------------------- #
def figure13_directed_sum_recreation(
    dataset: ScenarioDataset,
    *,
    budget_factors: Sequence[float] = (1.05, 1.1, 1.25, 1.5, 2.0, 3.0),
    gith_windows: Sequence[int] = (5, 10, 25, 50),
) -> dict[str, SweepSeries | dict[str, float]]:
    """Storage cost vs. sum of recreation costs for LMG/MP/LAST/GitH."""
    instance = dataset.instance
    budgets = budget_grid(instance, budget_factors)
    return {
        "references": reference_costs(instance),
        "LMG": sweep_lmg(instance, budgets),
        "MP": sweep_mp(instance),
        "LAST": sweep_last(instance),
        "GitH": sweep_gith(instance, gith_windows),
    }


def figure14_directed_max_recreation(
    dataset: ScenarioDataset,
    *,
    budget_factors: Sequence[float] = (1.05, 1.1, 1.25, 1.5, 2.0, 3.0),
) -> dict[str, SweepSeries | dict[str, float]]:
    """Storage cost vs. maximum recreation cost for LMG/MP/LAST."""
    instance = dataset.instance
    budgets = budget_grid(instance, budget_factors)
    return {
        "references": reference_costs(instance),
        "LMG": sweep_lmg(instance, budgets),
        "MP": sweep_mp(instance),
        "LAST": sweep_last(instance),
    }


# --------------------------------------------------------------------- #
# E5 — Figure 15 (undirected case)
# --------------------------------------------------------------------- #
def figure15_undirected(
    dataset: ScenarioDataset,
    *,
    budget_factors: Sequence[float] = (1.05, 1.1, 1.25, 1.5, 2.0, 3.0),
) -> dict[str, SweepSeries | dict[str, float]]:
    """The Figure 13/14 sweeps on undirected (symmetric-Δ) instances."""
    instance = dataset.instance
    budgets = budget_grid(instance, budget_factors)
    return {
        "references": reference_costs(instance),
        "LMG": sweep_lmg(instance, budgets),
        "MP": sweep_mp(instance),
        "LAST": sweep_last(instance),
    }


# --------------------------------------------------------------------- #
# E6 — Figure 16 (workload-aware LMG)
# --------------------------------------------------------------------- #
def figure16_workload_aware(
    dataset: ScenarioDataset,
    *,
    zipf_exponent: float = 2.0,
    budget_factors: Sequence[float] = (1.1, 1.5, 2.0, 3.0),
    seed: int = 0,
) -> dict[str, list[tuple[float, float]]]:
    """Weighted recreation cost of workload-aware vs. oblivious LMG.

    Returns, per variant, a list of ``(storage_budget, weighted_recreation)``
    points computed on the *same* Zipfian workload — the workload-aware run
    optimizes for it, the oblivious run ignores it.
    """
    workload = normalize_workload(
        zipfian_workload(dataset.instance.version_ids, exponent=zipf_exponent, seed=seed)
    )
    weighted_instance = dataset.instance.with_access_frequencies(workload)
    budgets = budget_grid(weighted_instance, budget_factors)

    aware: list[tuple[float, float]] = []
    oblivious: list[tuple[float, float]] = []
    for budget in budgets:
        aware_plan = local_move_greedy(weighted_instance, budget, use_workload=True)
        oblivious_plan = local_move_greedy(weighted_instance, budget, use_workload=False)
        aware.append((budget, aware_plan.evaluate(weighted_instance).weighted_recreation))
        oblivious.append(
            (budget, oblivious_plan.evaluate(weighted_instance).weighted_recreation)
        )
    return {"LMG-W": aware, "LMG": oblivious}


# --------------------------------------------------------------------- #
# E7 — Figure 17 (running times)
# --------------------------------------------------------------------- #
def figure17_running_times(
    dataset: ScenarioDataset,
    *,
    sizes: Sequence[int] = (25, 50, 100, 200),
    budget_factor: float = 3.0,
) -> list[dict[str, float]]:
    """Wall-clock running time of LMG/MP/LAST on growing BFS subgraphs.

    Mirrors the paper's methodology: subgraphs of increasing size are carved
    out of the dataset by BFS, and each algorithm is timed on each subgraph
    (LMG with a storage budget of ``budget_factor`` times the MST cost, MP
    with the loosest feasible threshold, LAST with α = 2).
    """
    rows: list[dict[str, float]] = []
    start_vertex = dataset.graph.version_ids[0]
    for size in sizes:
        if size > len(dataset.graph):
            continue
        subgraph = dataset.graph.bfs_subgraph(start_vertex, size)
        instance = ProblemInstance.from_version_graph(subgraph, dataset.cost_model)

        begin = time.perf_counter()
        mst_plan = minimum_storage_plan(instance)
        spt_plan = shortest_path_plan(instance)
        prep_time = time.perf_counter() - begin
        budget = budget_factor * mst_plan.storage_cost(instance)

        begin = time.perf_counter()
        local_move_greedy(instance, budget)
        lmg_time = time.perf_counter() - begin

        begin = time.perf_counter()
        modified_prim(instance, minimum_feasible_threshold(instance) * 2.0, strict=False)
        mp_time = time.perf_counter() - begin

        begin = time.perf_counter()
        last_plan(instance, alpha=2.0, initial_plan=mst_plan)
        last_time = time.perf_counter() - begin

        rows.append(
            {
                "num_versions": float(len(instance)),
                "prep_seconds": prep_time,
                "lmg_seconds": lmg_time,
                "mp_seconds": mp_time,
                "last_seconds": last_time,
                "spt_storage": spt_plan.storage_cost(instance),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E8 — Table 2 (ILP vs MP)
# --------------------------------------------------------------------- #
def table2_ilp_vs_mp(
    instance: ProblemInstance,
    thresholds: Sequence[float],
    *,
    use_milp: bool = True,
) -> list[dict[str, float]]:
    """Optimal (ILP) vs. MP storage cost for a sweep of θ values."""
    rows: list[dict[str, float]] = []
    for theta in thresholds:
        mp_plan = modified_prim(instance, theta, strict=False)
        row = {
            "theta": float(theta),
            "mp_storage": mp_plan.storage_cost(instance),
            "mp_max_recreation": mp_plan.evaluate(instance).max_recreation,
        }
        if use_milp:
            ilp_plan = solve_ilp_max_recreation(instance, theta)
            row["ilp_storage"] = ilp_plan.storage_cost(instance)
            row["ilp_max_recreation"] = ilp_plan.evaluate(instance).max_recreation
        rows.append(row)
    return rows
