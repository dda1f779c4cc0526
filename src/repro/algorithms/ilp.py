"""Exact solvers for the ILP formulation of Section 2.3.

The paper formulates Problem 6 (minimize storage subject to a bound on the
maximum recreation cost) as an integer linear program with

* one binary variable ``x_{i,j}`` per candidate edge (``x_{0,j}`` means
  "materialize version j"),
* one continuous variable ``r_i`` per version capturing its recreation cost,
* constraints ``Σ_i x_{i,j} = 1`` (every version stored exactly once),
  ``Φ_{i,j} + r_i - r_j ≤ (1 - x_{i,j})·C`` (big-C linearization of the
  recreation recurrence, which also rules out cycles), and ``r_i ≤ θ``.

The paper solves it with Gurobi; this reproduction offers two exact solvers
for small instances (Table 2 uses 15–50 versions):

* :func:`solve_ilp_max_recreation` — builds that exact MILP and solves it
  with ``scipy.optimize.milp`` (the HiGHS solver shipped with SciPy), and
* :func:`branch_and_bound_max_recreation` — a dependency-free
  branch-and-bound over parent assignments, used to cross-check the MILP on
  tiny instances and as a fallback when SciPy is unavailable.

A variant with the sum-of-recreation constraint (Problem 5) is also provided.
"""

from __future__ import annotations

import math

from ..core.instance import ROOT, Edge, ProblemInstance
from ..core.storage_plan import StoragePlan
from ..core.version import VersionID
from ..exceptions import InfeasibleProblemError, SolverError

__all__ = [
    "solve_ilp_max_recreation",
    "solve_ilp_sum_recreation",
    "branch_and_bound_max_recreation",
]


def _candidate_edges(instance: ProblemInstance) -> list[Edge]:
    """All candidate edges of the augmented graph, root edges first."""
    return list(instance.edges(include_root=True))


# --------------------------------------------------------------------- #
# SciPy / HiGHS MILP solver
# --------------------------------------------------------------------- #
def solve_ilp_max_recreation(
    instance: ProblemInstance,
    recreation_threshold: float,
    *,
    time_limit: float | None = 60.0,
) -> StoragePlan:
    """Problem 6 solved exactly through the Section 2.3 MILP.

    Parameters
    ----------
    instance:
        The versions and Δ/Φ matrices.  Intended for small instances
        (tens of versions); the model has one binary variable per candidate
        edge.
    recreation_threshold:
        The bound θ on every version's recreation cost.
    time_limit:
        Soft time limit in seconds handed to the HiGHS solver.

    Returns
    -------
    StoragePlan
        An optimal storage plan for the revealed deltas.
    """
    return _solve_milp(instance, recreation_threshold, aggregate="max", time_limit=time_limit)


def solve_ilp_sum_recreation(
    instance: ProblemInstance,
    recreation_threshold: float,
    *,
    time_limit: float | None = 60.0,
    use_workload: bool = False,
) -> StoragePlan:
    """Problem 5 solved exactly: minimize storage with ``Σ r_i ≤ θ``.

    With ``use_workload`` the constraint becomes the Figure-16 weighted form
    ``Σ fᵢ·rᵢ ≤ θ`` using the instance's access frequencies, matching what
    the workload-aware LMG heuristic optimizes (and the scale
    :func:`~repro.core.problems.default_threshold` prices θ on for workload
    instances).
    """
    return _solve_milp(
        instance,
        recreation_threshold,
        aggregate="sum",
        time_limit=time_limit,
        use_workload=use_workload,
    )


def _solve_milp(
    instance: ProblemInstance,
    threshold: float,
    *,
    aggregate: str,
    time_limit: float | None,
    use_workload: bool = False,
) -> StoragePlan:
    # Shortcut: when the storage-optimal tree already satisfies the
    # recreation constraint it is the exact optimum (its storage cost is a
    # lower bound for every feasible plan), so the MILP machinery — whose
    # big-C relaxation becomes very weak for loose thresholds, exactly as the
    # paper observed with Gurobi — can be skipped entirely.
    from .mst import minimum_storage_plan

    mca_plan = minimum_storage_plan(instance)
    mca_metrics = mca_plan.evaluate(instance)
    if aggregate == "max":
        mca_value = mca_metrics.max_recreation
    elif use_workload:
        mca_value = mca_metrics.weighted_recreation
    else:
        mca_value = mca_metrics.sum_recreation
    if mca_value <= threshold * (1 + 1e-12) + 1e-9:
        return mca_plan

    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import lil_matrix
    except ImportError as exc:  # pragma: no cover - scipy is an install requirement
        raise SolverError(
            "scipy is required for the MILP solver; use "
            "branch_and_bound_max_recreation instead"
        ) from exc

    edges = _candidate_edges(instance)
    versions = list(instance.version_ids)
    version_index = {vid: k for k, vid in enumerate(versions)}
    n = len(versions)
    m = len(edges)

    # Variable layout: x_0 .. x_{m-1} (binary edge indicators), then
    # r_0 .. r_{n-1} (continuous recreation costs).
    num_vars = m + n
    cost = np.zeros(num_vars)
    for k, edge in enumerate(edges):
        cost[k] = edge.storage

    integrality = np.zeros(num_vars)
    integrality[:m] = 1  # x variables are binary

    # A data-driven upper bound on any r_i: a recreation chain visits each
    # version at most once, so it can never exceed the sum over versions of
    # their most expensive incoming recreation edge.  Using this instead of a
    # loose user-supplied θ keeps the big-C linearization well scaled (HiGHS
    # struggles badly when the big-C dwarfs the objective coefficients).
    worst_in_recreation: dict[VersionID, float] = {}
    for edge in edges:
        current = worst_in_recreation.get(edge.target, 0.0)
        worst_in_recreation[edge.target] = max(current, edge.recreation)
    chain_bound = float(sum(worst_in_recreation.values()))
    recreation_cap = min(float(threshold), chain_bound)

    # Shortest-path recreation distances are valid lower bounds on every r_i
    # and tighten the LP relaxation considerably (without them HiGHS has to
    # discover the same information through branching on the big-C rows).
    from .shortest_path import shortest_path_distances

    spt_distance = shortest_path_distances(instance)

    lower = np.zeros(num_vars)
    upper = np.empty(num_vars)
    upper[:m] = 1.0
    if aggregate == "max":
        upper[m:] = recreation_cap
    elif use_workload:
        # Σ fᵢ·rᵢ ≤ θ bounds an individual rᵢ by θ/fᵢ at best (nothing at
        # all for fᵢ = 0), so only the structural chain bound is valid here.
        upper[m:] = chain_bound
    else:
        upper[m:] = min(float(threshold), chain_bound)
    for vid, index in version_index.items():
        lower[m + index] = spt_distance.get(vid, 0.0)
    bounds = Bounds(lb=lower, ub=upper)

    big_c = recreation_cap + max(edge.recreation for edge in edges) + 1.0

    constraints = []

    # (1) Every version is stored exactly once: sum of in-edges == 1.
    assignment = lil_matrix((n, num_vars))
    for k, edge in enumerate(edges):
        assignment[version_index[edge.target], k] = 1.0
    constraints.append(LinearConstraint(assignment.tocsr(), lb=np.ones(n), ub=np.ones(n)))

    # (2) Recreation recurrence: Φ_ij + r_i - r_j <= (1 - x_ij) * C
    #     <=>  C*x_ij + r_i - r_j <= C - Φ_ij
    recurrence = lil_matrix((m, num_vars))
    rhs = np.empty(m)
    for k, edge in enumerate(edges):
        recurrence[k, k] = big_c
        if edge.source is not ROOT:
            recurrence[k, m + version_index[edge.source]] = 1.0
        recurrence[k, m + version_index[edge.target]] = -1.0
        rhs[k] = big_c - edge.recreation
    constraints.append(
        LinearConstraint(recurrence.tocsr(), lb=np.full(m, -np.inf), ub=rhs)
    )

    # (2b) Valid strengthening cuts: choosing edge (i, j) forces r_j to be at
    # least the edge's recreation cost plus i's shortest-path distance, i.e.
    # r_j - (Φ_ij + SPT_i)·x_ij >= 0.  These are implied by (2) at integer
    # points but are much stronger in the LP relaxation.
    cuts = lil_matrix((m, num_vars))
    for k, edge in enumerate(edges):
        source_floor = 0.0 if edge.source is ROOT else spt_distance.get(edge.source, 0.0)
        cuts[k, k] = -(edge.recreation + source_floor)
        cuts[k, m + version_index[edge.target]] = 1.0
    constraints.append(
        LinearConstraint(cuts.tocsr(), lb=np.zeros(m), ub=np.full(m, np.inf))
    )

    # (3) Aggregate recreation constraint for the sum variant (frequency
    # weighted on workload-aware runs, so θ and the row share one scale).
    if aggregate == "sum":
        sum_row = lil_matrix((1, num_vars))
        for vid in versions:
            weight = instance.access_frequency(vid) if use_workload else 1.0
            sum_row[0, m + version_index[vid]] = weight
        constraints.append(
            LinearConstraint(sum_row.tocsr(), lb=np.array([-np.inf]), ub=np.array([threshold]))
        )

    options = {"time_limit": time_limit} if time_limit is not None else None
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options=options,
    )
    # A time-limited run can still return a feasible incumbent (result.x set
    # even though success/optimality is not proven); use it rather than fail.
    if result.x is None:
        if "time limit" in str(result.message).lower():
            # The model is feasible (the MCA shortcut above would have fired
            # for trivially loose thresholds and the heuristics prove
            # feasibility for anything above the minimum threshold) but the
            # solver ran out of time before finding an incumbent — exactly
            # the behaviour the paper reports for Gurobi.  Fall back to the
            # best heuristic solution so sweeps keep producing a row.
            from .mp import modified_prim

            if aggregate == "max":
                return modified_prim(instance, threshold, strict=True)
            from .lmg import solve_problem_5

            return solve_problem_5(instance, threshold, use_workload=use_workload)
        raise InfeasibleProblemError(
            f"the MILP solver found no feasible plan for threshold {threshold:g} "
            f"({result.message})"
        )

    plan = StoragePlan()
    for k, edge in enumerate(edges):
        if result.x[k] > 0.5:
            plan.assign(edge.target, edge.source)
    plan.validate(instance)

    # When the time limit truncates the branch-and-bound, the incumbent can
    # be worse than the fast heuristics; never return something a heuristic
    # beats (for fully solved models this comparison is a no-op because the
    # optimum is a lower bound on every feasible plan).
    try:
        if aggregate == "max":
            from .mp import modified_prim

            heuristic = modified_prim(instance, threshold, strict=False)
        else:
            from .lmg import solve_problem_5

            heuristic = solve_problem_5(instance, threshold)
        if heuristic.storage_cost(instance) < plan.storage_cost(instance) - 1e-9:
            return heuristic
    except Exception:  # pragma: no cover - heuristics failing must not mask the MILP
        pass
    return plan


# --------------------------------------------------------------------- #
# Pure-Python branch and bound (tiny instances, used as a cross-check)
# --------------------------------------------------------------------- #
def branch_and_bound_max_recreation(
    instance: ProblemInstance,
    recreation_threshold: float,
    *,
    max_versions: int = 12,
) -> StoragePlan:
    """Exact Problem 6 solver by branch and bound over parent assignments.

    Versions are assigned a parent edge one at a time in a fixed order (so
    every spanning tree is enumerated exactly once), with three pruning
    rules: a cheapest-remaining-in-edge lower bound on storage, incremental
    cycle detection, and a recreation-cost check for every version whose
    chain to the root is already fully decided.  Exponential in the worst
    case — restricted to ``max_versions`` versions and intended as an
    independent cross-check of the MILP on tiny instances.
    """
    versions = list(instance.version_ids)
    if len(versions) > max_versions:
        raise SolverError(
            f"branch and bound is limited to {max_versions} versions; "
            f"got {len(versions)} (use solve_ilp_max_recreation instead)"
        )
    theta = float(recreation_threshold)

    in_edges: dict[VersionID, list[Edge]] = {vid: [] for vid in versions}
    for edge in instance.edges(include_root=True):
        in_edges[edge.target].append(edge)
    for candidates in in_edges.values():
        candidates.sort(key=lambda e: (e.storage, str(e.source)))
    cheapest_in = {vid: in_edges[vid][0].storage for vid in versions}
    suffix_lower_bound = [0.0] * (len(versions) + 1)
    for index in range(len(versions) - 1, -1, -1):
        suffix_lower_bound[index] = suffix_lower_bound[index + 1] + cheapest_in[versions[index]]

    best_cost = math.inf
    best_parent: dict[VersionID, VersionID] | None = None

    def creates_cycle(assigned: dict[VersionID, VersionID], child: VersionID) -> bool:
        node = assigned[child]
        while node is not ROOT and node in assigned:
            if node == child:
                return True
            node = assigned[node]
        return False

    def resolved_recreation(
        assigned: dict[VersionID, VersionID], vid: VersionID
    ) -> float | None:
        """Recreation cost of ``vid`` if its chain to ROOT is fully assigned."""
        total = 0.0
        node = vid
        while node is not ROOT:
            parent = assigned.get(node)
            if parent is None:
                return None
            if parent is ROOT:
                total += instance.materialization_recreation(node)
                return total
            total += instance.delta_recreation(parent, node)
            node = parent
        return total  # pragma: no cover - loop always returns earlier

    def recurse(index: int, assigned: dict[VersionID, VersionID], storage: float) -> None:
        nonlocal best_cost, best_parent
        if storage + suffix_lower_bound[index] >= best_cost:
            return
        if index == len(versions):
            # Full assignment: cycles were excluded incrementally, so every
            # chain resolves; verify the recreation bound holds everywhere.
            for vid in versions:
                cost = resolved_recreation(assigned, vid)
                if cost is None or cost > theta + 1e-9:
                    return
            best_cost = storage
            best_parent = dict(assigned)
            return
        vid = versions[index]
        for edge in in_edges[vid]:
            assigned[vid] = edge.source
            if not creates_cycle(assigned, vid):
                cost = resolved_recreation(assigned, vid)
                if cost is None or cost <= theta + 1e-9:
                    recurse(index + 1, assigned, storage + edge.storage)
            del assigned[vid]

    recurse(0, {}, 0.0)
    if best_parent is None:
        raise InfeasibleProblemError(
            f"no feasible plan exists for recreation threshold {theta:g}"
        )
    plan = StoragePlan()
    for child, parent in best_parent.items():
        plan.assign(child, parent)
    plan.validate(instance)
    return plan
