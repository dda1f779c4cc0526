"""Graph-algorithm substrate and the paper's heuristics.

Every algorithm here is implemented from scratch on top of the shared
:class:`~repro.algorithms.priority_queue.AddressablePriorityQueue`:

* storage-optimal trees — Prim's MST and Edmonds' minimum-cost
  arborescence (Problem 1);
* the shortest-path tree (Problem 2);
* the paper's heuristics — LMG, MP, LAST and GitH (Problems 3–6);
* exact solvers for small instances — the Section 2.3 MILP and a
  branch-and-bound cross-check.
"""

from .arborescence import minimum_arborescence, minimum_arborescence_plan
from .gith import git_heuristic_plan
from .ilp import (
    branch_and_bound_max_recreation,
    solve_ilp_max_recreation,
    solve_ilp_sum_recreation,
)
from .last import last_plan
from .lmg import local_move_greedy, solve_problem_5
from .mp import minimum_feasible_threshold, modified_prim, solve_problem_4
from .mst import (
    minimum_spanning_plan_undirected,
    minimum_storage_plan,
    prim_minimum_spanning_tree,
)
from .priority_queue import AddressablePriorityQueue
from .shortest_path import dijkstra, shortest_path_distances, shortest_path_plan, shortest_path_tree

__all__ = [
    "minimum_arborescence",
    "minimum_arborescence_plan",
    "git_heuristic_plan",
    "branch_and_bound_max_recreation",
    "solve_ilp_max_recreation",
    "solve_ilp_sum_recreation",
    "last_plan",
    "local_move_greedy",
    "solve_problem_5",
    "minimum_feasible_threshold",
    "modified_prim",
    "solve_problem_4",
    "minimum_spanning_plan_undirected",
    "minimum_storage_plan",
    "prim_minimum_spanning_tree",
    "AddressablePriorityQueue",
    "dijkstra",
    "shortest_path_distances",
    "shortest_path_plan",
    "shortest_path_tree",
]
