"""Declarative descriptions of the paper's six problems and a solve dispatcher.

Table 1 of the paper defines six optimization problems over the same input
(the Δ/Φ matrices).  This module gives each a first-class description —
what is minimized, what is bounded — and a :func:`solve` entry point that
routes to the algorithm the paper recommends:

==========  =======================  ==========================  ==============
Problem     Minimize                 Subject to                  Algorithm
==========  =======================  ==========================  ==============
1           total storage ``C``      —                           MST / MCA
2           every ``R_i``            —                           Shortest-path tree
3           ``Σ R_i``                ``C ≤ β``                   LMG
4           ``max R_i``              ``C ≤ β``                   MP (bisected) / LAST
5           total storage ``C``      ``Σ R_i ≤ θ``               LMG + bisection
6           total storage ``C``      ``max R_i ≤ θ``             MP
==========  =======================  ==========================  ==============
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from ..exceptions import InfeasibleProblemError, SolverError
from .instance import ProblemInstance
from .objectives import Objective
from .storage_plan import StoragePlan

__all__ = [
    "ProblemKind",
    "ProblemSpec",
    "PROBLEMS",
    "solve",
    "SolveResult",
    "default_threshold",
]


class ProblemKind(IntEnum):
    """The six optimization problems of Table 1."""

    MINIMIZE_STORAGE = 1
    MINIMIZE_RECREATION = 2
    MINSUM_RECREATION = 3
    MINMAX_RECREATION = 4
    MIN_STORAGE_SUM_RECREATION = 5
    MIN_STORAGE_MAX_RECREATION = 6


@dataclass(frozen=True)
class ProblemSpec:
    """Objective/constraint structure of one of the six problems."""

    kind: ProblemKind
    minimize: Objective
    constraint: Objective | None
    constraint_name: str | None
    description: str

    @property
    def needs_threshold(self) -> bool:
        """True when the problem takes a numeric bound (β or θ)."""
        return self.constraint is not None


PROBLEMS: dict[ProblemKind, ProblemSpec] = {
    ProblemKind.MINIMIZE_STORAGE: ProblemSpec(
        kind=ProblemKind.MINIMIZE_STORAGE,
        minimize=Objective.TOTAL_STORAGE,
        constraint=None,
        constraint_name=None,
        description="Minimize total storage cost with no recreation constraint.",
    ),
    ProblemKind.MINIMIZE_RECREATION: ProblemSpec(
        kind=ProblemKind.MINIMIZE_RECREATION,
        minimize=Objective.MAX_RECREATION,
        constraint=None,
        constraint_name=None,
        description="Minimize every version's recreation cost (shortest-path tree).",
    ),
    ProblemKind.MINSUM_RECREATION: ProblemSpec(
        kind=ProblemKind.MINSUM_RECREATION,
        minimize=Objective.SUM_RECREATION,
        constraint=Objective.TOTAL_STORAGE,
        constraint_name="beta",
        description="Minimize the sum of recreation costs subject to a storage budget.",
    ),
    ProblemKind.MINMAX_RECREATION: ProblemSpec(
        kind=ProblemKind.MINMAX_RECREATION,
        minimize=Objective.MAX_RECREATION,
        constraint=Objective.TOTAL_STORAGE,
        constraint_name="beta",
        description="Minimize the maximum recreation cost subject to a storage budget.",
    ),
    ProblemKind.MIN_STORAGE_SUM_RECREATION: ProblemSpec(
        kind=ProblemKind.MIN_STORAGE_SUM_RECREATION,
        minimize=Objective.TOTAL_STORAGE,
        constraint=Objective.SUM_RECREATION,
        constraint_name="theta",
        description="Minimize total storage subject to a bound on the sum of recreation costs.",
    ),
    ProblemKind.MIN_STORAGE_MAX_RECREATION: ProblemSpec(
        kind=ProblemKind.MIN_STORAGE_MAX_RECREATION,
        minimize=Objective.TOTAL_STORAGE,
        constraint=Objective.MAX_RECREATION,
        constraint_name="theta",
        description="Minimize total storage subject to a bound on the maximum recreation cost.",
    ),
}


class SolveResult:
    """The outcome of :func:`solve`: a plan plus its evaluated metrics."""

    def __init__(
        self,
        problem: ProblemSpec,
        plan: StoragePlan,
        instance: ProblemInstance,
        algorithm: str,
    ) -> None:
        self.problem = problem
        self.plan = plan
        self.algorithm = algorithm
        self.metrics = plan.evaluate(instance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SolveResult problem={self.problem.kind.name} algorithm={self.algorithm} "
            f"{self.metrics!r}>"
        )


class Algorithm(str, Enum):
    """Named algorithms available to :func:`solve`."""

    AUTO = "auto"
    MST = "mst"
    SPT = "spt"
    LMG = "lmg"
    MP = "mp"
    LAST = "last"
    GITH = "gith"
    ILP = "ilp"


def solve(
    instance: ProblemInstance,
    problem: ProblemKind | int,
    threshold: float | None = None,
    algorithm: Algorithm | str = Algorithm.AUTO,
    **options: object,
) -> SolveResult:
    """Solve one of the paper's six problems on ``instance``.

    Parameters
    ----------
    instance:
        The versions and cost model.
    problem:
        Which of the six problems to solve (``ProblemKind`` or plain int 1-6).
    threshold:
        The storage budget β (Problems 3 and 4) or recreation threshold θ
        (Problems 5 and 6).  Required for those problems, ignored otherwise.
    algorithm:
        Override the default algorithm choice.  ``auto`` picks the paper's
        recommendation for the problem.
    options:
        Extra keyword arguments forwarded to the underlying algorithm (for
        example ``alpha`` for LAST or ``window`` for GitH).

    Returns
    -------
    SolveResult
        The storage plan plus its evaluated metrics.
    """
    kind = ProblemKind(problem)
    spec = PROBLEMS[kind]
    if spec.needs_threshold and threshold is None:
        raise InfeasibleProblemError(
            f"problem {kind.value} ({spec.description}) requires a "
            f"'{spec.constraint_name}' threshold"
        )
    algorithm = Algorithm(algorithm)
    if algorithm is Algorithm.AUTO:
        algorithm = _default_algorithm(kind)
    plan = _dispatch(instance, kind, threshold, algorithm, options)
    plan.validate(instance)
    return SolveResult(spec, plan, instance, algorithm.value)


def default_threshold(
    instance: ProblemInstance,
    problem: ProblemKind | int,
    *,
    threshold: float | None = None,
    factor: float | None = None,
) -> float | None:
    """Resolve an absolute β/θ bound for ``problem`` on ``instance``.

    An explicit ``threshold`` wins.  Otherwise ``factor`` (default 1.5)
    scales the problem's natural reference: the MCA storage cost for the
    storage-bounded problems 3/4, and the total/max recreation cost of the
    materialize-everything plan for the recreation-bounded problems 5/6.
    Problems without a constraint resolve to ``None``.  Shared by the CLI
    and the serving layer so both price thresholds identically.

    Workload-aware instances weight problem 5's reference by access
    frequency (Σ fᵢ·Φᵢᵢ): the θ bound must live on the same scale as the
    Σ fᵢ·Rᵢ objective LMG then optimizes.  On a uniform workload every
    frequency is 1 and the reference is unchanged.
    """
    kind = ProblemKind(problem)
    if not PROBLEMS[kind].needs_threshold:
        return None
    if threshold is not None:
        return float(threshold)
    if factor is None:
        factor = 1.5
    from ..algorithms.mst import minimum_storage_plan

    if kind in (ProblemKind.MINSUM_RECREATION, ProblemKind.MINMAX_RECREATION):
        reference = minimum_storage_plan(instance).storage_cost(instance)
    elif kind is ProblemKind.MIN_STORAGE_SUM_RECREATION:
        reference = sum(
            instance.access_frequency(vid) * instance.materialization_recreation(vid)
            for vid in instance.version_ids
        )
    else:
        reference = max(
            instance.materialization_recreation(vid) for vid in instance.version_ids
        )
    return float(factor) * reference


def _default_algorithm(kind: ProblemKind) -> Algorithm:
    if kind is ProblemKind.MINIMIZE_STORAGE:
        return Algorithm.MST
    if kind is ProblemKind.MINIMIZE_RECREATION:
        return Algorithm.SPT
    if kind in (ProblemKind.MINSUM_RECREATION, ProblemKind.MIN_STORAGE_SUM_RECREATION):
        return Algorithm.LMG
    return Algorithm.MP


def _dispatch(
    instance: ProblemInstance,
    kind: ProblemKind,
    threshold: float | None,
    algorithm: Algorithm,
    options: dict[str, object],
) -> StoragePlan:
    # Imports are local to avoid a hard dependency cycle between the core
    # package and the algorithms package.
    from ..algorithms import gith, ilp, last, lmg, mp, mst, shortest_path

    if algorithm is Algorithm.MST:
        return mst.minimum_storage_plan(instance)
    if algorithm is Algorithm.SPT:
        return shortest_path.shortest_path_plan(instance)
    if algorithm is Algorithm.GITH:
        return gith.git_heuristic_plan(instance, **options)
    if algorithm is Algorithm.LAST:
        return last.last_plan(instance, **options)
    if algorithm is Algorithm.LMG:
        if kind is ProblemKind.MIN_STORAGE_SUM_RECREATION:
            # Problem 5 defaults to the unweighted objective; when the
            # instance carries observed access frequencies (the serving
            # layer's workload log) the bound and objective switch to the
            # Figure-16 weighted form unless the caller overrides.
            options.setdefault("use_workload", instance.has_workload)
            return lmg.solve_problem_5(instance, float(threshold), **options)
        if kind in (ProblemKind.MINSUM_RECREATION, ProblemKind.MINMAX_RECREATION):
            return lmg.local_move_greedy(instance, float(threshold), **options)
        if kind is ProblemKind.MINIMIZE_STORAGE:
            return mst.minimum_storage_plan(instance)
        raise SolverError(f"LMG does not apply to problem {kind.value}")
    if algorithm is Algorithm.MP:
        if kind is ProblemKind.MIN_STORAGE_MAX_RECREATION:
            return mp.modified_prim(instance, float(threshold), **options)
        if kind is ProblemKind.MINMAX_RECREATION:
            return mp.solve_problem_4(instance, float(threshold), **options)
        if kind is ProblemKind.MINIMIZE_RECREATION:
            return shortest_path.shortest_path_plan(instance)
        raise SolverError(f"MP does not apply to problem {kind.value}")
    if algorithm is Algorithm.ILP:
        if kind is ProblemKind.MIN_STORAGE_MAX_RECREATION:
            return ilp.solve_ilp_max_recreation(instance, float(threshold), **options)
        if kind is ProblemKind.MIN_STORAGE_SUM_RECREATION:
            # Keep the exact solver on the same (weighted) scale as the
            # threshold default_threshold prices for workload instances.
            options.setdefault("use_workload", instance.has_workload)
            return ilp.solve_ilp_sum_recreation(instance, float(threshold), **options)
        if kind is ProblemKind.MINIMIZE_STORAGE:
            return mst.minimum_storage_plan(instance)
        raise SolverError(f"the ILP solver does not apply to problem {kind.value}")
    raise SolverError(f"unknown algorithm {algorithm!r}")  # pragma: no cover
