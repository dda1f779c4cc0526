"""Property-based tests (hypothesis) on the core data structures and invariants.

These check the invariants the paper's framework relies on:

* every algorithm returns a *valid* storage plan (a spanning tree rooted at
  the dummy vertex) on arbitrary revealed-delta structures;
* the fundamental orderings between the reference plans (MCA is the storage
  lower bound, SPT is the recreation lower bound) hold on every instance;
* delta encoders round-trip arbitrary payloads;
* the priority queue behaves like a sorted container.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.gith import git_heuristic_plan
from repro.algorithms.last import last_plan
from repro.algorithms.lmg import local_move_greedy
from repro.algorithms.mp import minimum_feasible_threshold, modified_prim
from repro.algorithms.mst import minimum_storage_plan
from repro.algorithms.priority_queue import AddressablePriorityQueue
from repro.algorithms.shortest_path import shortest_path_distances, shortest_path_plan
from repro.core import ROOT, CostModel, ProblemInstance, Version
from repro.delta.cell_diff import CellDiffEncoder
from repro.delta.line_diff import LineDiffEncoder, TwoWayLineDiffEncoder
from repro.delta.xor_diff import XorDeltaEncoder


# --------------------------------------------------------------------- #
# instance strategy
# --------------------------------------------------------------------- #
@st.composite
def problem_instances(draw) -> ProblemInstance:
    """Random small instances with arbitrary revealed deltas.

    Materialization costs are arbitrary positive floats; each ordered pair
    of versions is revealed with some probability, with a delta that is
    never larger than materializing the target (the realistic regime).
    """
    num_versions = draw(st.integers(min_value=1, max_value=8))
    directed = draw(st.booleans())
    proportional = draw(st.booleans())
    ids = [f"v{i}" for i in range(num_versions)]
    model = CostModel(directed=directed, phi_equals_delta=proportional)
    sizes = {}
    for vid in ids:
        size = draw(st.floats(min_value=10.0, max_value=1000.0, allow_nan=False))
        sizes[vid] = size
        model.set_materialization(vid, size)
    for i, source in enumerate(ids):
        for target in ids:
            if source == target:
                continue
            if not directed and (target, source) in model.delta:
                continue
            if draw(st.booleans()):
                fraction = draw(st.floats(min_value=0.01, max_value=1.0))
                storage = fraction * sizes[target]
                if proportional:
                    model.set_delta(source, target, storage)
                else:
                    multiplier = draw(st.floats(min_value=0.1, max_value=5.0))
                    model.set_delta(source, target, storage, storage * multiplier)
    versions = [Version(vid, size=sizes[vid]) for vid in ids]
    return ProblemInstance(versions, model)


COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestPlanInvariants:
    @COMMON_SETTINGS
    @given(instance=problem_instances())
    def test_mca_is_storage_lower_bound(self, instance):
        mca = minimum_storage_plan(instance)
        mca.validate(instance)
        spt = shortest_path_plan(instance)
        spt.validate(instance)
        assert mca.storage_cost(instance) <= spt.storage_cost(instance) + 1e-6

    @COMMON_SETTINGS
    @given(instance=problem_instances())
    def test_spt_is_recreation_lower_bound(self, instance):
        mca = minimum_storage_plan(instance)
        spt_costs = shortest_path_plan(instance).recreation_costs(instance)
        mca_costs = mca.recreation_costs(instance)
        for vid in instance.version_ids:
            assert spt_costs[vid] <= mca_costs[vid] + 1e-6

    @COMMON_SETTINGS
    @given(instance=problem_instances(), factor=st.floats(min_value=1.0, max_value=5.0))
    def test_lmg_respects_budget_and_validity(self, instance, factor):
        mca_cost = minimum_storage_plan(instance).storage_cost(instance)
        budget = factor * mca_cost
        plan = local_move_greedy(instance, budget)
        plan.validate(instance)
        assert plan.storage_cost(instance) <= budget + 1e-6

    @COMMON_SETTINGS
    @given(instance=problem_instances(), factor=st.floats(min_value=1.0, max_value=10.0))
    def test_mp_respects_threshold_and_validity(self, instance, factor):
        theta = factor * minimum_feasible_threshold(instance)
        plan = modified_prim(instance, theta)
        plan.validate(instance)
        assert plan.evaluate(instance).max_recreation <= theta + 1e-6

    @COMMON_SETTINGS
    @given(instance=problem_instances(), alpha=st.floats(min_value=1.1, max_value=5.0))
    def test_last_plans_are_valid(self, instance, alpha):
        plan = last_plan(instance, alpha)
        plan.validate(instance)

    @COMMON_SETTINGS
    @given(
        instance=problem_instances(),
        window=st.integers(min_value=1, max_value=20),
        depth=st.integers(min_value=1, max_value=10),
    )
    def test_gith_plans_are_valid_and_respect_depth(self, instance, window, depth):
        plan = git_heuristic_plan(instance, window=window, max_depth=depth)
        plan.validate(instance)
        assert plan.max_depth() <= depth

    @COMMON_SETTINGS
    @given(instance=problem_instances())
    def test_shortest_path_distances_obey_edge_relaxation(self, instance):
        distances = shortest_path_distances(instance)
        for edge in instance.edges():
            source_distance = 0.0 if edge.source not in distances else distances[edge.source]
            if edge.source is ROOT:
                assert distances[edge.target] <= edge.recreation + 1e-6
            else:
                assert distances[edge.target] <= distances[edge.source] + edge.recreation + 1e-6


class TestDeltaEncoderProperties:
    @COMMON_SETTINGS
    @given(
        source=st.lists(st.text(alphabet="abcxyz,0123", max_size=12), max_size=40),
        target=st.lists(st.text(alphabet="abcxyz,0123", max_size=12), max_size=40),
    )
    def test_line_diff_roundtrip(self, source, target):
        encoder = LineDiffEncoder()
        assert encoder.apply(source, encoder.diff(source, target)) == target

    @COMMON_SETTINGS
    @given(
        source=st.lists(st.text(alphabet="abcd", max_size=8), max_size=30),
        target=st.lists(st.text(alphabet="abcd", max_size=8), max_size=30),
    )
    def test_two_way_diff_roundtrips_both_directions(self, source, target):
        encoder = TwoWayLineDiffEncoder()
        delta = encoder.diff(source, target)
        assert encoder.apply(source, delta) == target
        assert encoder.apply_reverse(target, delta) == source

    @COMMON_SETTINGS
    @given(source=st.binary(max_size=300), target=st.binary(max_size=300))
    def test_xor_symmetric_roundtrip(self, source, target):
        encoder = XorDeltaEncoder()
        delta = encoder.diff(source, target)
        assert encoder.apply(source, delta) == target
        assert encoder.apply(target, delta) == source

    @COMMON_SETTINGS
    @given(
        source=st.lists(
            st.lists(st.text(alphabet="pqr5", max_size=4), min_size=1, max_size=5),
            max_size=15,
        ),
        target=st.lists(
            st.lists(st.text(alphabet="pqr5", max_size=4), min_size=1, max_size=5),
            max_size=15,
        ),
    )
    def test_cell_diff_roundtrip(self, source, target):
        encoder = CellDiffEncoder()
        normalized_target = [[str(cell) for cell in row] for row in target]
        assert encoder.apply(source, encoder.diff(source, target)) == normalized_target

    @COMMON_SETTINGS
    @given(
        lines=st.lists(st.text(alphabet="abc", max_size=6), max_size=30),
    )
    def test_identical_payload_delta_is_free(self, lines):
        delta = LineDiffEncoder().diff(lines, list(lines))
        assert delta.storage_cost == 0.0


class TestPriorityQueueProperties:
    @COMMON_SETTINGS
    @given(
        entries=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), st.floats(0, 100, allow_nan=False)),
            max_size=60,
        )
    )
    def test_pop_order_is_sorted(self, entries):
        queue = AddressablePriorityQueue()
        final = {}
        for key, priority in entries:
            queue.push(key, priority)
            final[key] = priority
        drained = []
        while queue:
            item, priority = queue.pop()
            assert math.isclose(priority, final[item])
            drained.append(priority)
        assert drained == sorted(drained)
        assert len(drained) == len(final)
