"""Tests for the Problem 1-6 descriptions and the solve() dispatcher."""

from __future__ import annotations

import pytest

from repro.core.objectives import Objective
from repro.core.problems import (
    PROBLEMS,
    Algorithm,
    ProblemKind,
    default_threshold,
    solve,
)
from repro.exceptions import InfeasibleProblemError, SolverError

from tests.helpers import build_figure1_instance


class TestProblemSpecs:
    def test_all_six_problems_defined(self):
        assert {kind.value for kind in PROBLEMS} == {1, 2, 3, 4, 5, 6}

    def test_unconstrained_problems_take_no_threshold(self):
        assert not PROBLEMS[ProblemKind.MINIMIZE_STORAGE].needs_threshold
        assert not PROBLEMS[ProblemKind.MINIMIZE_RECREATION].needs_threshold

    def test_constrained_problems_need_threshold(self):
        for kind in (
            ProblemKind.MINSUM_RECREATION,
            ProblemKind.MINMAX_RECREATION,
            ProblemKind.MIN_STORAGE_SUM_RECREATION,
            ProblemKind.MIN_STORAGE_MAX_RECREATION,
        ):
            assert PROBLEMS[kind].needs_threshold

    def test_objectives_match_table1(self):
        assert PROBLEMS[ProblemKind.MINIMIZE_STORAGE].minimize is Objective.TOTAL_STORAGE
        assert PROBLEMS[ProblemKind.MINSUM_RECREATION].minimize is Objective.SUM_RECREATION
        assert PROBLEMS[ProblemKind.MINMAX_RECREATION].minimize is Objective.MAX_RECREATION
        assert (
            PROBLEMS[ProblemKind.MIN_STORAGE_MAX_RECREATION].constraint
            is Objective.MAX_RECREATION
        )


class TestSolveDispatcher:
    def test_problem1_auto(self):
        instance = build_figure1_instance()
        result = solve(instance, 1)
        assert result.algorithm == "mst"
        assert result.metrics.storage_cost == pytest.approx(11450)

    def test_problem2_auto(self):
        instance = build_figure1_instance()
        result = solve(instance, ProblemKind.MINIMIZE_RECREATION)
        assert result.algorithm == "spt"
        assert result.metrics.max_recreation == pytest.approx(10120)

    def test_problem3_requires_threshold(self):
        instance = build_figure1_instance()
        with pytest.raises(InfeasibleProblemError):
            solve(instance, 3)

    def test_problem3_auto_uses_lmg(self):
        instance = build_figure1_instance()
        result = solve(instance, 3, threshold=20000)
        assert result.algorithm == "lmg"
        assert result.metrics.storage_cost <= 20000 + 1e-6

    def test_problem4_auto_uses_mp(self):
        instance = build_figure1_instance()
        result = solve(instance, 4, threshold=25000)
        assert result.algorithm == "mp"
        assert result.metrics.storage_cost <= 25000 + 1e-6

    def test_problem5_auto(self):
        instance = build_figure1_instance()
        result = solve(instance, 5, threshold=60000)
        assert result.metrics.sum_recreation <= 60000 + 1e-6

    def test_problem6_auto(self):
        instance = build_figure1_instance()
        result = solve(instance, 6, threshold=13000)
        assert result.metrics.max_recreation <= 13000 + 1e-6

    def test_problem6_with_ilp_algorithm(self):
        instance = build_figure1_instance()
        result = solve(instance, 6, threshold=13000, algorithm="ilp")
        assert result.algorithm == "ilp"
        auto = solve(instance, 6, threshold=13000)
        assert result.metrics.storage_cost <= auto.metrics.storage_cost + 1e-6

    def test_explicit_algorithm_names(self):
        instance = build_figure1_instance()
        assert solve(instance, 1, algorithm=Algorithm.MST).algorithm == "mst"
        assert solve(instance, 2, algorithm="spt").algorithm == "spt"
        gith = solve(instance, 1, algorithm="gith", window=5)
        assert gith.algorithm == "gith"
        last = solve(instance, 4, threshold=30000, algorithm="last", alpha=2.0)
        assert last.algorithm == "last"

    def test_mismatched_algorithm_problem_rejected(self):
        instance = build_figure1_instance()
        with pytest.raises(SolverError):
            solve(instance, 6, threshold=13000, algorithm="lmg")
        with pytest.raises(SolverError):
            solve(instance, 3, threshold=20000, algorithm="mp")

    def test_unknown_problem_number_rejected(self):
        instance = build_figure1_instance()
        with pytest.raises(ValueError):
            solve(instance, 7)

    def test_result_repr_mentions_problem(self):
        instance = build_figure1_instance()
        result = solve(instance, 1)
        assert "MINIMIZE_STORAGE" in repr(result)

    def test_returned_plans_are_always_valid(self, small_lc):
        instance = small_lc.instance
        mca = solve(instance, 1).metrics.storage_cost
        for kind, threshold in [
            (1, None),
            (2, None),
            (3, 2.0 * mca),
            (4, 2.0 * mca),
            (5, 1e12),
            (6, 1e9),
        ]:
            result = solve(instance, kind, threshold=threshold)
            result.plan.validate(instance)


# What each explicit algorithm does with each problem.  "optimum:1" and
# "optimum:2" mean the algorithm answers with the Problem 1 / Problem 2
# optimum whatever the problem; "bounded" means it honors the problem's
# β/θ bound; "heuristic" means a valid plan with no promise about the
# bound; "rejected" means SolverError.
DISPATCH = {
    Algorithm.MST: dict.fromkeys(range(1, 7), "optimum:1"),
    Algorithm.SPT: dict.fromkeys(range(1, 7), "optimum:2"),
    Algorithm.GITH: dict.fromkeys(range(1, 7), "heuristic"),
    Algorithm.LAST: dict.fromkeys(range(1, 7), "heuristic"),
    Algorithm.LMG: {
        1: "optimum:1",
        2: "rejected",
        3: "bounded",
        4: "bounded",
        5: "bounded",
        6: "rejected",
    },
    Algorithm.MP: {
        1: "rejected",
        2: "optimum:2",
        3: "rejected",
        4: "bounded",
        5: "rejected",
        6: "bounded",
    },
    Algorithm.ILP: {
        1: "optimum:1",
        2: "rejected",
        3: "rejected",
        4: "rejected",
        5: "bounded",
        6: "bounded",
    },
}

BOUNDED_METRIC = {
    Objective.TOTAL_STORAGE: "storage_cost",
    Objective.SUM_RECREATION: "sum_recreation",
    Objective.MAX_RECREATION: "max_recreation",
}


class TestDispatchMatrix:
    """Every explicit (algorithm, problem) pair of :func:`solve`."""

    @pytest.mark.parametrize("problem", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "algorithm", list(DISPATCH), ids=lambda algorithm: algorithm.value
    )
    def test_pair(self, algorithm, problem):
        instance = build_figure1_instance()
        threshold = default_threshold(instance, problem)
        expected = DISPATCH[algorithm][problem]
        if expected == "rejected":
            with pytest.raises(SolverError):
                solve(instance, problem, threshold=threshold, algorithm=algorithm)
            return
        result = solve(instance, problem, threshold=threshold, algorithm=algorithm)
        result.plan.validate(instance)
        assert result.algorithm == algorithm.value
        assert result.problem.kind == ProblemKind(problem)
        if expected == "optimum:1":
            assert result.metrics.storage_cost == pytest.approx(
                solve(instance, 1).metrics.storage_cost
            )
        elif expected == "optimum:2":
            assert result.metrics.max_recreation == pytest.approx(
                solve(instance, 2).metrics.max_recreation
            )
            assert result.metrics.sum_recreation == pytest.approx(
                solve(instance, 2).metrics.sum_recreation
            )
        elif expected == "bounded":
            spec = PROBLEMS[ProblemKind(problem)]
            bound = getattr(result.metrics, BOUNDED_METRIC[spec.constraint])
            assert bound <= threshold * (1 + 1e-9) + 1e-6


class TestDefaultThreshold:
    def test_unconstrained_problems_resolve_to_none(self):
        instance = build_figure1_instance()
        assert default_threshold(instance, 1, threshold=5.0) is None
        assert default_threshold(instance, 2, factor=3.0) is None

    @pytest.mark.parametrize("problem", [3, 4, 5, 6])
    def test_explicit_threshold_wins_over_factor(self, problem):
        instance = build_figure1_instance()
        assert default_threshold(instance, problem, threshold=1234, factor=9.0) == 1234.0

    @pytest.mark.parametrize("problem", [3, 4, 5, 6])
    def test_factor_scales_the_problem_reference(self, problem):
        instance = build_figure1_instance()
        versions = instance.version_ids
        references = {
            3: solve(instance, 1).metrics.storage_cost,
            4: solve(instance, 1).metrics.storage_cost,
            5: sum(instance.materialization_recreation(v) for v in versions),
            6: max(instance.materialization_recreation(v) for v in versions),
        }
        assert default_threshold(instance, problem) == pytest.approx(
            1.5 * references[problem]
        )
        assert default_threshold(instance, problem, factor=2.0) == pytest.approx(
            2.0 * references[problem]
        )
