"""Synthetic version-graph generator.

Reimplements the paper's "synthetic version generator suite" (Section 5.1),
which produces a version history DAG controlled by a small set of
parameters:

* ``num_commits`` — total number of versions;
* ``branch_interval`` / ``branch_probability`` — after how many consecutive
  commits a branch point may occur, and with what probability;
* ``branch_limit`` — the maximum number of branches created at a branch
  point (the actual number is uniform in ``[1, branch_limit]``);
* ``branch_length`` — the maximum number of commits in a branch (the actual
  length is uniform in ``[1, branch_length]``);
* ``merge_probability`` — probability that a finished branch is merged back
  into the mainline (producing versions with two parents, as DataHub
  permits).

The generator only creates the *structure*; sizes and costs are attached by
:mod:`repro.datagen.cost_gen` (synthetic costs) or measured by a
:class:`~repro.storage.repository.Repository` the payloads are committed to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.version import Version
from ..core.version_graph import VersionGraph

__all__ = ["VersionGraphConfig", "generate_version_graph", "linear_chain_graph", "flat_history_graph"]


@dataclass(frozen=True)
class VersionGraphConfig:
    """Parameters of the synthetic version-history generator."""

    num_commits: int = 100
    branch_interval: int = 5
    branch_probability: float = 0.3
    branch_limit: int = 3
    branch_length: int = 10
    merge_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_commits < 1:
            raise ValueError("num_commits must be at least 1")
        if self.branch_interval < 1:
            raise ValueError("branch_interval must be at least 1")
        if not 0.0 <= self.branch_probability <= 1.0:
            raise ValueError("branch_probability must be in [0, 1]")
        if self.branch_limit < 1:
            raise ValueError("branch_limit must be at least 1")
        if self.branch_length < 1:
            raise ValueError("branch_length must be at least 1")
        if not 0.0 <= self.merge_probability <= 1.0:
            raise ValueError("merge_probability must be in [0, 1]")


def generate_version_graph(config: VersionGraphConfig) -> VersionGraph:
    """Generate a branching/merging version history.

    The generator walks a mainline of commits; every ``branch_interval``
    commits it flips a coin (``branch_probability``) and, on success, forks
    up to ``branch_limit`` branches of random length off the current mainline
    head.  Each finished branch is merged back with probability
    ``merge_probability``.  Version ids are ``"v0"``, ``"v1"``, ... in
    creation order; sizes are left at zero (to be filled by the payload or
    cost generators).
    """
    rng = random.Random(config.seed)
    graph = VersionGraph()
    counter = 0

    def next_id() -> str:
        nonlocal counter
        vid = f"v{counter}"
        counter += 1
        return vid

    mainline_head = next_id()
    graph.add_version(Version(version_id=mainline_head, name="main", created_at=0))

    since_branch = 0
    while counter < config.num_commits:
        # Possibly start branches off the current mainline head.
        if (
            since_branch >= config.branch_interval
            and rng.random() < config.branch_probability
            and counter < config.num_commits
        ):
            since_branch = 0
            num_branches = rng.randint(1, config.branch_limit)
            for branch_index in range(num_branches):
                if counter >= config.num_commits:
                    break
                branch_head = mainline_head
                length = rng.randint(1, config.branch_length)
                branch_name = f"branch-{mainline_head}-{branch_index}"
                for _ in range(length):
                    if counter >= config.num_commits:
                        break
                    vid = next_id()
                    graph.add_version(
                        Version(
                            version_id=vid,
                            name=branch_name,
                            parents=(branch_head,),
                            created_at=counter,
                        )
                    )
                    branch_head = vid
                # Merge the branch back into the mainline sometimes.
                if (
                    branch_head != mainline_head
                    and counter < config.num_commits
                    and rng.random() < config.merge_probability
                ):
                    vid = next_id()
                    graph.add_version(
                        Version(
                            version_id=vid,
                            name="merge",
                            parents=(mainline_head, branch_head),
                            created_at=counter,
                        )
                    )
                    mainline_head = vid
            continue
        # Plain mainline commit.
        vid = next_id()
        graph.add_version(
            Version(
                version_id=vid,
                name="main",
                parents=(mainline_head,),
                created_at=counter,
            )
        )
        mainline_head = vid
        since_branch += 1
    return graph


def linear_chain_graph(num_commits: int, seed: int = 0) -> VersionGraph:
    """A "mostly linear" history: few branches, long intervals (LC shape)."""
    config = VersionGraphConfig(
        num_commits=num_commits,
        branch_interval=max(2, num_commits // 10),
        branch_probability=0.2,
        branch_limit=1,
        branch_length=max(2, num_commits // 20),
        merge_probability=0.3,
        seed=seed,
    )
    return generate_version_graph(config)


def flat_history_graph(num_commits: int, seed: int = 0) -> VersionGraph:
    """A "flat" history: many frequent short branches (DC shape)."""
    config = VersionGraphConfig(
        num_commits=num_commits,
        branch_interval=2,
        branch_probability=0.7,
        branch_limit=4,
        branch_length=3,
        merge_probability=0.5,
        seed=seed,
    )
    return generate_version_graph(config)
