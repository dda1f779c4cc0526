"""GitH — the Git repack heuristic (Section 4.4 and Appendix A).

Git packs a repository by sorting objects (primarily by size, decreasing),
then scanning them while keeping a sliding *window* of recently considered
objects.  Each object is delta-compressed against the window member that
yields the smallest *depth-biased* delta::

    score(B, O) = delta(B, O) / (max_depth - depth(B))

so shallow bases are preferred over slightly smaller deltas hanging off long
chains, and no chain may exceed ``max_depth``.  After choosing a base the
window is shuffled: the chosen base moves to the end (it stays around
longer) and the new object enters the window.

The reproduction operates on a :class:`~repro.core.instance.ProblemInstance`
and only uses deltas that have been revealed in the Δ matrix — mirroring how
the paper ran GitH "restricted to choose from deltas that were available to
the other algorithms".
"""

from __future__ import annotations

from collections import deque

from ..core.instance import ProblemInstance
from ..core.storage_plan import StoragePlan
from ..core.version import VersionID
from ..exceptions import SolverError

__all__ = ["git_heuristic_plan"]


def git_heuristic_plan(
    instance: ProblemInstance,
    window: int = 10,
    max_depth: int = 50,
    *,
    unlimited_window: bool = False,
) -> StoragePlan:
    """Build a storage plan with the Git repack heuristic.

    Parameters
    ----------
    instance:
        The versions and Δ/Φ matrices.
    window:
        Size of the sliding window of candidate delta bases.
    max_depth:
        Maximum allowed delta-chain length; a version whose best base sits at
        ``max_depth - 1`` is materialized instead of extending the chain.
    unlimited_window:
        When true, every previously processed version stays in the window
        (the "infinite window" setting the paper uses for the DC/LC/LF runs).

    Returns
    -------
    StoragePlan
        A feasible plan; versions with no usable base in the window are
        materialized, so the plan always covers every version.
    """
    if window < 1:
        raise SolverError(f"GitH window must be at least 1, got {window}")
    if max_depth < 1:
        raise SolverError(f"GitH max depth must be at least 1, got {max_depth}")

    # Step 1 of the appendix: sort by size, largest first (we have no "type"
    # or "name hash" distinction between dataset versions).
    ordering = sorted(
        instance.version_ids,
        key=lambda vid: (-instance.materialization_storage(vid), str(vid)),
    )

    plan = StoragePlan()
    depth: dict[VersionID, int] = {}
    window_deque: deque[VersionID] = deque()

    for vid in ordering:
        best_base: VersionID | None = None
        best_score = float("inf")
        for base in window_deque:
            if depth[base] >= max_depth:
                continue
            delta = instance.cost_model.delta.get(base, vid)
            if delta is None:
                continue
            score = delta / (max_depth - depth[base])
            if score < best_score:
                best_score = score
                best_base = base

        if best_base is None:
            plan.materialize(vid)
            depth[vid] = 0
        else:
            # Only keep the delta when it actually saves storage over
            # materializing the version outright (git always wins here
            # because deltas are smaller than objects; with arbitrary cost
            # matrices we check explicitly).
            delta_cost = instance.cost_model.delta[best_base, vid]
            if delta_cost < instance.materialization_storage(vid):
                plan.assign(vid, best_base)
                depth[vid] = depth[best_base] + 1
                # Shuffle: move the chosen base to the end of the window.
                window_deque.remove(best_base)
                window_deque.append(best_base)
            else:
                plan.materialize(vid)
                depth[vid] = 0

        window_deque.append(vid)
        if not unlimited_window:
            while len(window_deque) > window:
                window_deque.popleft()

    return plan
