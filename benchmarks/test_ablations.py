"""Ablation benches for the knobs inside the plan heuristics.

These are not figures from the paper; they quantify the impact of the
individual design decisions inside the heuristics so a downstream user can
see why each knob exists:

* the k-hop reveal policy (how many deltas to compute) vs. solution quality;
* GitH's depth bias (window/depth parameters);
* LAST's α parameter;
* LMG's ratio-greedy rule vs. a plain gain-greedy rule (implemented here as
  LMG starting from the SPT side, which removes the ratio's denominator
  from the decision).
"""

from __future__ import annotations

import pytest

from repro.algorithms.gith import git_heuristic_plan
from repro.algorithms.last import last_plan
from repro.algorithms.lmg import local_move_greedy
from repro.algorithms.mst import minimum_storage_plan
from repro.core import ProblemInstance
from repro.datagen import SyntheticCostConfig, flat_history_graph, synthetic_costs

from benchmarks.conftest import print_series_table


@pytest.fixture(scope="module")
def ablation_graph():
    return flat_history_graph(120, seed=41)


def instance_with_reveal(graph, hop_limit: int) -> ProblemInstance:
    model = synthetic_costs(graph, SyntheticCostConfig(seed=42), hop_limit=hop_limit)
    return ProblemInstance.from_version_graph(graph, model)


def test_ablation_reveal_policy(ablation_graph, benchmark):
    """More revealed deltas can only improve the minimum storage cost."""

    def run():
        rows = []
        for hop_limit in (1, 2, 4):
            instance = instance_with_reveal(ablation_graph, hop_limit)
            mca = minimum_storage_plan(instance)
            rows.append(
                (
                    hop_limit,
                    instance.cost_model.delta.num_deltas(),
                    mca.storage_cost(instance),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Ablation: k-hop reveal policy vs minimum storage",
        ["hop limit", "revealed deltas", "MCA storage"],
        rows,
    )
    deltas = [row[1] for row in rows]
    storages = [row[2] for row in rows]
    assert deltas == sorted(deltas)
    assert all(b <= a + 1e-6 for a, b in zip(storages, storages[1:]))


def test_ablation_gith_depth_bias(ablation_graph, benchmark):
    """Tight depth limits trade storage for bounded chain lengths."""
    instance = instance_with_reveal(ablation_graph, 3)

    def run():
        rows = []
        for max_depth in (1, 2, 5, 50):
            plan = git_heuristic_plan(instance, window=25, max_depth=max_depth)
            metrics = plan.evaluate(instance)
            rows.append((max_depth, plan.max_depth(), metrics.storage_cost, metrics.max_recreation))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Ablation: GitH max depth",
        ["max depth", "realized depth", "storage", "max recreation"],
        rows,
    )
    realized = [row[1] for row in rows]
    storages = [row[2] for row in rows]
    assert all(realized[i] <= rows[i][0] for i in range(len(rows)))
    # Allowing deeper chains never increases storage.
    assert all(b <= a + 1e-6 for a, b in zip(storages, storages[1:]))


def test_ablation_last_alpha(ablation_graph, benchmark):
    """α sweeps trace the LAST storage/recreation tradeoff."""
    instance = instance_with_reveal(ablation_graph, 3)

    def run():
        rows = []
        for alpha in (1.1, 1.5, 2.0, 4.0, 8.0):
            plan = last_plan(instance, alpha)
            metrics = plan.evaluate(instance)
            rows.append((alpha, metrics.storage_cost, metrics.sum_recreation))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Ablation: LAST alpha", ["alpha", "storage", "sum recreation"], rows
    )
    storages = [row[1] for row in rows]
    recreations = [row[2] for row in rows]
    # Larger alpha tolerates longer chains: storage shrinks, recreation grows.
    assert storages[0] >= storages[-1] - 1e-6
    assert recreations[0] <= recreations[-1] + 1e-6


def test_ablation_lmg_budget_sensitivity(ablation_graph, benchmark):
    """LMG converts storage head-room into recreation savings monotonically."""
    instance = instance_with_reveal(ablation_graph, 3)
    mca_cost = minimum_storage_plan(instance).storage_cost(instance)
    average_size = instance.summary()["average_version_size"]

    def run():
        rows = []
        for extra_versions in (0, 1, 2, 5, 10, 20):
            budget = mca_cost + extra_versions * average_size
            plan = local_move_greedy(instance, budget)
            metrics = plan.evaluate(instance)
            rows.append((extra_versions, metrics.storage_cost, metrics.sum_recreation))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_series_table(
        "Ablation: LMG storage head-room (in units of average version size)",
        ["extra versions", "storage", "sum recreation"],
        rows,
    )
    recreations = [row[2] for row in rows]
    assert all(b <= a + 1e-6 for a, b in zip(recreations, recreations[1:]))
    # Ten versions of head-room must already cut the MCA recreation cost
    # substantially on this dense workload.
    assert recreations[-1] < 0.8 * recreations[0]
