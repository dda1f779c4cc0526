"""End-to-end integration tests across the whole stack.

These exercise the pipeline the examples and benchmarks rely on:
commit a version history with real payloads → measure the Δ/Φ matrices
with the repository's delta encoder → optimize with the paper's
algorithms → repack the repository according to the chosen plan → verify
that what the plan predicted matches what the physical store realizes.
"""

from __future__ import annotations

import random

import pytest

from repro import ProblemKind, solve
from repro.algorithms.mst import minimum_storage_plan
from repro.algorithms.shortest_path import shortest_path_plan
from repro.baselines.naive import materialize_all_plan
from repro.datagen.graph_gen import VersionGraphConfig, generate_version_graph
from repro.datagen.workload import normalize_workload, zipfian_workload
from repro.delta.line_diff import LineDiffEncoder
from repro.storage.repository import Repository


def seeded_csv_payloads(graph, seed, rows=40, columns=4):
    """One CSV table per version, derived from its first parent by row edits."""
    rng = random.Random(seed)

    def row():
        return ",".join(str(rng.randrange(1000)) for _ in range(columns))

    payloads = {}
    for vid in graph.topological_order():
        parents = graph.parents(vid)
        if not parents:
            payloads[vid] = [row() for _ in range(rows)]
            continue
        table = list(payloads[parents[0]])
        for _ in range(rng.randint(1, 3)):
            index = rng.randrange(len(table))
            edit = rng.choice(("add", "delete", "modify"))
            if edit == "add":
                table.insert(index, row())
            elif edit == "delete" and len(table) > 1:
                del table[index]
            else:
                table[index] = row()
        payloads[vid] = table
    return payloads


@pytest.fixture(scope="module")
def generated_world():
    graph = generate_version_graph(
        VersionGraphConfig(
            num_commits=25,
            branch_interval=3,
            branch_probability=0.5,
            branch_limit=2,
            branch_length=3,
            merge_probability=0.5,
            seed=17,
        )
    )
    payloads = seeded_csv_payloads(graph, seed=17)
    repo = Repository(encoder=LineDiffEncoder())
    for vid in graph.topological_order():
        repo.commit(payloads[vid], parents=graph.parents(vid) or None, version_id=vid)
    return graph, payloads, repo, repo.problem_instance(hop_limit=2)


class TestMeasuredInstancePipeline:
    def test_instance_covers_all_versions(self, generated_world):
        graph, _, _, instance = generated_world
        assert set(instance.version_ids) == set(graph.version_ids)

    def test_all_six_problems_solvable_on_measured_costs(self, generated_world):
        _, _, _, instance = generated_world
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        spt_metrics = shortest_path_plan(instance).evaluate(instance)
        thresholds = {
            1: None,
            2: None,
            3: 1.5 * mca_cost,
            4: 1.5 * mca_cost,
            5: 1.5 * spt_metrics.sum_recreation,
            6: 1.5 * spt_metrics.max_recreation,
        }
        storages = {}
        for problem, threshold in thresholds.items():
            result = solve(instance, problem, threshold=threshold)
            result.plan.validate(instance)
            storages[problem] = result.metrics.storage_cost
        # Problem 1 yields the smallest storage of all solutions.
        assert storages[1] == min(storages.values())

    def test_predicted_vs_realized_costs_after_repack(self, generated_world):
        graph, payloads, repo, instance = generated_world
        result = solve(instance, ProblemKind.MINSUM_RECREATION, threshold=1.5 * minimum_storage_plan(instance).storage_cost(instance))
        repo.repack(result.plan)

        # Every version must check out byte-identical to the committed table.
        for vid in graph.version_ids:
            assert repo.checkout(vid).payload == payloads[vid]

        # The physical chain length of each checkout must match the plan.
        for vid in graph.version_ids:
            assert repo.checkout(vid).chain_length == result.plan.depth(vid)

    def test_workload_aware_solution_pipeline(self, generated_world):
        _, _, _, instance = generated_world
        workload = normalize_workload(
            zipfian_workload(instance.version_ids, exponent=2.0, seed=2)
        )
        weighted = instance.with_access_frequencies(workload)
        budget = 1.5 * minimum_storage_plan(weighted).storage_cost(weighted)
        aware = solve(weighted, ProblemKind.MINSUM_RECREATION, threshold=budget)
        hottest = max(workload, key=workload.get)
        # The hottest version must sit on a short chain in the aware plan.
        assert aware.plan.depth(hottest) <= 2


class TestRepositoryLifecycle:
    def test_branching_history_then_repack_to_each_reference_plan(self):
        repo = Repository(encoder=LineDiffEncoder())
        payload = [f"row,{i}" for i in range(50)]
        repo.commit(payload)
        for index in range(5):
            payload = payload + [f"main,{index}"]
            repo.commit(payload)
        repo.branch("side", at=repo.graph.version_ids[2])
        repo.switch("side")
        side_payload = [f"row,{i}" for i in range(50)] + ["side"]
        repo.commit(side_payload)
        repo.switch("main")
        repo.merge(repo.head("side"), payload + ["merged"])

        instance = repo.problem_instance(hop_limit=2)
        snapshots = {vid: repo.checkout(vid).payload for vid in repo.graph.version_ids}

        for plan in (
            materialize_all_plan(instance),
            minimum_storage_plan(instance),
            shortest_path_plan(instance),
        ):
            repo.repack(plan)
            for vid, payload_snapshot in snapshots.items():
                assert repo.checkout(vid).payload == payload_snapshot

    def test_storage_plan_costs_reflect_object_store(self):
        repo = Repository(encoder=LineDiffEncoder())
        payload = [f"data,{i},{i * 3}" for i in range(80)]
        repo.commit(payload)
        for index in range(4):
            payload = payload[:20] + [f"patch,{index}"] + payload[20:]
            repo.commit(payload)
        instance = repo.problem_instance(hop_limit=2)
        plan = minimum_storage_plan(instance)
        report = repo.repack(plan)
        # The predicted plan storage and the realized object-store storage
        # are computed from the same encoder, so they must agree closely.
        assert report["storage_after"] == pytest.approx(
            plan.storage_cost(instance), rel=0.05
        )
