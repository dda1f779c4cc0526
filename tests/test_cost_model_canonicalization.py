"""Φ canonicalization for symmetric encoders in Repository.build_cost_model.

Symmetric encoders (``cell``, ``two-way-line``) produce one delta usable in
both directions, but the *measured* recreation cost of diff(a, b) can differ
from diff(b, a) — while the undirected cost matrix stores a single entry per
unordered pair.  The model must therefore not depend on which direction
happened to be measured last: each pair is canonicalized to the max of both
directions.
"""

from __future__ import annotations

import pytest

from repro.delta.cell_diff import CellDiffEncoder
from repro.delta.line_diff import TwoWayLineDiffEncoder
from repro.storage.repository import Repository


def build_two_way_repo() -> Repository:
    repo = Repository(encoder=TwoWayLineDiffEncoder(), cache_size=0)
    payload = [f"row,{i}" for i in range(20)]
    repo.commit(payload)
    # Asymmetric growth: the child is much larger than its parent, so the
    # two diff directions measure visibly different costs.
    repo.commit(payload + [f"grown,{i}" for i in range(15)])
    repo.commit(payload[:8])
    return repo


def build_cell_repo() -> Repository:
    repo = Repository(encoder=CellDiffEncoder(), cache_size=0)
    table = [[i, i * 2, i * 3] for i in range(12)]
    repo.commit(table)
    repo.commit([[i, i * 2, 99] for i in range(12)])
    repo.commit([row[:] for row in table][:5] + [[100, 101, 102]])
    return repo


@pytest.mark.parametrize("builder", [build_two_way_repo, build_cell_repo])
def test_model_is_undirected_and_consistent(builder):
    repo = builder()
    model = repo.build_cost_model()
    assert not model.directed
    for (source, target), value in model.phi.off_diagonal_items():
        assert model.phi[target, source] == value
        assert model.delta[target, source] == model.delta[source, target]


@pytest.mark.parametrize("builder", [build_two_way_repo, build_cell_repo])
def test_entries_are_max_of_both_directions(builder):
    repo = builder()
    model = repo.build_cost_model()
    payloads = {
        vid: repo.checkout(vid).payload
        for vid in repo.graph.version_ids
    }
    for (source, target), _ in list(model.delta.off_diagonal_items()):
        forward = repo.encoder.diff(payloads[source], payloads[target])
        backward = repo.encoder.diff(payloads[target], payloads[source])
        assert model.delta[source, target] == max(
            forward.storage_cost, backward.storage_cost
        )
        assert model.phi[source, target] == max(
            forward.recreation_cost, backward.recreation_cost
        )


def test_pair_order_does_not_change_the_model():
    """Explicit pairs in either orientation yield identical matrices."""
    repo = build_two_way_repo()
    vids = list(repo.graph.version_ids)
    pairs_forward = [(vids[0], vids[1]), (vids[1], vids[2])]
    pairs_backward = [(b, a) for a, b in reversed(pairs_forward)]
    forward = repo.build_cost_model(pairs=pairs_forward)
    backward = repo.build_cost_model(pairs=pairs_backward)
    for (source, target), value in forward.phi.off_diagonal_items():
        assert backward.phi[source, target] == value
    for (source, target), value in forward.delta.off_diagonal_items():
        assert backward.delta[source, target] == value


def test_directed_encoders_unchanged():
    """The default line-diff encoder still yields a directed, per-direction model."""
    repo = Repository(cache_size=0)
    payload = [f"row,{i}" for i in range(10)]
    repo.commit(payload)
    repo.commit(payload + ["x", "y", "z"])
    model = repo.build_cost_model()
    assert model.directed
    vids = list(repo.graph.version_ids)
    payloads = {
        vid: repo.checkout(vid).payload for vid in vids
    }
    delta = repo.encoder.diff(payloads[vids[0]], payloads[vids[1]])
    assert model.delta[vids[0], vids[1]] == delta.storage_cost
    assert model.phi[vids[0], vids[1]] == delta.recreation_cost
