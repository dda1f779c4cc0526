"""Collaborative data-science pipeline example.

This example mirrors the paper's motivating "Data Science Dataset Versions"
scenario: a group of analysts repeatedly copies a shared dataset, applies
private cleaning/normalization steps, and stores the modified versions back
into a shared folder.  It shows the full life cycle:

1. a :class:`~repro.storage.repository.Repository` records the commits,
   branches and merges of three analysts working off a common base table;
2. the repository measures its own Δ/Φ cost model from the real payloads;
3. the six optimization problems are solved on that instance;
4. the repository is *repacked* according to the Problem 3 plan, and the
   realized storage/recreation numbers are compared with the naive layout.

Run with::

    python examples/collaborative_pipeline.py
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import ProblemKind, solve
from repro.algorithms import minimum_storage_plan, shortest_path_plan
from repro.bench import format_table
from repro.delta import LineDiffEncoder
from repro.storage import Repository


def make_base_table(rows: int = 120, seed: int = 0) -> list[str]:
    """A CSV-ish dataset: id, name, age, score."""
    rng = random.Random(seed)
    lines = ["id,name,age,score"]
    for index in range(rows):
        lines.append(
            f"{index},user{rng.randint(0, 999):03d},{rng.randint(18, 80)},{rng.random():.3f}"
        )
    return lines


def cleaned(lines: list[str], seed: int) -> list[str]:
    """Simulate a cleaning pass: drop some rows, normalize some scores."""
    rng = random.Random(seed)
    result = [lines[0]]
    for line in lines[1:]:
        if rng.random() < 0.05:
            continue  # drop outliers
        cells = line.split(",")
        if rng.random() < 0.2:
            cells[3] = f"{min(1.0, float(cells[3]) * 1.1):.3f}"
        result.append(",".join(cells))
    return result


def with_feature(lines: list[str], name: str, seed: int) -> list[str]:
    """Simulate feature engineering: append a derived column."""
    rng = random.Random(seed)
    result = [lines[0] + f",{name}"]
    for line in lines[1:]:
        result.append(line + f",{rng.random():.3f}")
    return result


def main() -> None:
    repo = Repository(encoder=LineDiffEncoder())

    # Analyst A commits the base dataset on main.
    base = make_base_table()
    base_id = repo.commit(base, message="base export from warehouse")

    # Analyst A keeps cleaning on main.
    head = base
    for round_index in range(4):
        head = cleaned(head, seed=round_index)
        repo.commit(head, message=f"cleaning round {round_index}")
    main_head = repo.head()

    # Analyst B branches off the base version and engineers features.
    repo.branch("features", at=base_id)
    repo.switch("features")
    feature_table = with_feature(base, "engagement", seed=10)
    repo.commit(feature_table, message="add engagement feature")
    feature_table = with_feature(feature_table, "churn_risk", seed=11)
    features_head = repo.commit(feature_table, message="add churn_risk feature")

    # Analyst C branches off main and samples the data.
    repo.switch("main")
    repo.branch("sample", at=main_head)
    repo.switch("sample")
    sampled = [head[0]] + [line for index, line in enumerate(head[1:]) if index % 2 == 0]
    repo.commit(sampled, message="50% sample for prototyping")

    # The cleaned mainline and the feature branch are merged by analyst A.
    repo.switch("main")
    merged = with_feature(head, "engagement", seed=10)
    repo.merge(features_head, merged, message="merge engineered features")

    print(f"repository now holds {len(repo)} versions on {len(repo.branches)} branches")
    print(f"naive storage cost (as committed): {repo.total_storage_cost():,.0f}\n")

    # Build the optimization instance from the real payloads.
    instance = repo.problem_instance(hop_limit=3)
    mca = minimum_storage_plan(instance)
    spt = shortest_path_plan(instance)
    print("reference points:")
    print(f"  minimum storage (MCA): {mca.storage_cost(instance):,.0f}")
    print(f"  minimum recreation storage (SPT): {spt.storage_cost(instance):,.0f}\n")

    rows = []
    for kind, threshold in [
        (ProblemKind.MINSUM_RECREATION, 1.5 * mca.storage_cost(instance)),
        (ProblemKind.MIN_STORAGE_MAX_RECREATION, 2.0 * max(
            instance.materialization_recreation(vid) for vid in instance.version_ids
        )),
    ]:
        result = solve(instance, kind, threshold=threshold)
        rows.append(
            [
                f"Problem {kind.value} ({result.algorithm})",
                result.metrics.storage_cost,
                result.metrics.sum_recreation,
                result.metrics.max_recreation,
                result.metrics.num_materialized,
            ]
        )
    print(format_table(
        ["solution", "storage", "sum recreation", "max recreation", "#materialized"], rows
    ))

    # Repack the repository according to the Problem 3 plan and verify.
    plan = solve(
        instance, ProblemKind.MINSUM_RECREATION, threshold=1.5 * mca.storage_cost(instance)
    ).plan
    report = repo.repack(plan)
    print("\nrepack report:")
    for key, value in report.items():
        print(f"  {key}: {value:,.1f}")

    # Every version must still check out byte-identically.
    reconstructed = repo.checkout(base_id).payload
    assert reconstructed == base, "repacking must preserve payloads"
    print("\nall versions verified identical after repacking")


if __name__ == "__main__":
    main()
