"""Operating the prototype version manager end to end.

This example exercises the DataHub-style :class:`~repro.storage.Repository`
the way the paper's prototype is used: many commits across several branches,
periodic repacking driven by the optimization algorithms, and a stream of
checkouts whose realized recreation cost is compared against what the plan
predicted.

Run with::

    python examples/datahub_repository.py
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import ProblemKind, solve
from repro.algorithms import minimum_storage_plan
from repro.bench import format_table
from repro.datagen import normalize_workload, sample_accesses, zipfian_workload
from repro.delta import LineDiffEncoder
from repro.storage import Repository


def random_lines(rng: random.Random, count: int) -> list[str]:
    return [
        ",".join(str(rng.randint(0, 9999)) for _ in range(6)) for _ in range(count)
    ]


def mutate(rng: random.Random, lines: list[str]) -> list[str]:
    """Apply a small random edit: change, insert or delete a few lines."""
    result = list(lines)
    for _ in range(rng.randint(1, 5)):
        action = rng.choice(["change", "insert", "delete"])
        if action == "change" and result:
            result[rng.randrange(len(result))] = ",".join(
                str(rng.randint(0, 9999)) for _ in range(6)
            )
        elif action == "insert":
            result.insert(rng.randrange(len(result) + 1), ",".join(
                str(rng.randint(0, 9999)) for _ in range(6)
            ))
        elif action == "delete" and len(result) > 10:
            del result[rng.randrange(len(result))]
    return result


def main() -> None:
    rng = random.Random(2024)
    # A small warm cache: realized recreation below is net of its reuse.
    repo = Repository(encoder=LineDiffEncoder(), cache_size=8)

    # Mainline commits.
    payload = random_lines(rng, 150)
    repo.commit(payload, message="initial import")
    for index in range(12):
        payload = mutate(rng, payload)
        repo.commit(payload, message=f"main update {index}")

    # Two feature branches with their own histories.
    base_head = repo.head()
    for branch_index in range(2):
        branch_name = f"experiment-{branch_index}"
        repo.branch(branch_name, at=base_head)
        repo.switch(branch_name)
        branch_payload = payload
        for index in range(6):
            branch_payload = mutate(rng, branch_payload)
            repo.commit(branch_payload, message=f"{branch_name} step {index}")
        repo.switch("main")

    print(f"{len(repo)} versions committed; naive storage "
          f"{repo.total_storage_cost():,.0f} units")

    # Measure the cost model and plan a repack under a Zipfian workload.
    workload = normalize_workload(
        zipfian_workload(repo.graph.version_ids, exponent=2.0, seed=1)
    )
    instance = repo.problem_instance(access_frequencies=workload, hop_limit=3)
    mca_cost = minimum_storage_plan(instance).storage_cost(instance)
    result = solve(instance, ProblemKind.MINSUM_RECREATION, threshold=1.5 * mca_cost)
    print(f"planned layout: storage {result.metrics.storage_cost:,.0f}, "
          f"{result.metrics.num_materialized:.0f} materialized versions")

    report = repo.repack(result.plan)
    print(f"repacked: {report['storage_before']:,.0f} -> {report['storage_after']:,.0f} units\n")

    # Replay a checkout trace and compare realized vs. predicted recreation.
    predicted = result.plan.recreation_costs(instance)
    trace = sample_accesses(workload, num_accesses=200, seed=5)
    rows = []
    realized_total = 0.0
    predicted_total = 0.0
    chain_total = 0
    for vid in trace:
        item = repo.checkout(vid)
        realized_total += item.recreation_cost
        predicted_total += predicted[vid]
        chain_total += item.chain_length
    rows.append(["trace of 200 checkouts", predicted_total, realized_total])
    print(format_table(["workload", "predicted recreation", "realized recreation"], rows))
    print(f"\naverage chain length over the trace: "
          f"{chain_total / max(1, len(trace)):.2f} deltas")


if __name__ == "__main__":
    main()
