"""Seeded store builders for the load benchmark's four dataset shapes.

Every store is built through the public API a user has — ``repro init``,
``Repository.commit``, ``save_repository`` — so ``setup_s`` prices the real
commit path.  A dataset is a trunk that grows side branches at regular
intervals; the *shape* (how many versions, how long the forks, how wide the
fan) is a constant of the workload and the seed only chooses row contents
and where each edit lands.  That keeps chain depth, storage ratio and the
request mix's cost the same from seed to seed, so a spread between runs is
the system's and not the generator's.

Each commit rewrites one **contiguous** window of rows.  The line-diff
encoder trims the common prefix and suffix before running its O(n·m) LCS, so
a clustered edit diffs in time linear in the payload; scattered edits (what
``repro.bench.batch_bench.build_repository_from_graph`` produces) would put
the whole payload through the quadratic table and make set-up a benchmark of
``lcs_table`` alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Shape:
    """The history a workload's store is built with (a workload constant)."""

    trunk: int  # commits on the main line
    rows: int  # lines per payload, ~100 bytes each
    backend: str  # backend spec handed to ``repro init``
    fork_every: int = 0  # every k-th trunk commit grows side branches (0: never)
    forks: int = 1  # side branches per fork point (the fan width)
    fork_len: int = 1  # commits per side branch
    edit_rows: int = 10  # rows rewritten per commit, one contiguous window

    def parents(self) -> list[int | None]:
        """Parent index of every commit, in commit order (``None``: the root)."""
        plan: list[int | None] = []
        trunk_head: int | None = None
        for step in range(self.trunk):
            plan.append(trunk_head)
            trunk_head = len(plan) - 1
            if self.fork_every and step % self.fork_every == self.fork_every - 1:
                for _ in range(self.forks):
                    head = trunk_head
                    for _ in range(self.fork_len):
                        plan.append(head)
                        head = len(plan) - 1
        return plan

    def heads(self, count: int) -> set[int]:
        """Indexes of the ``count`` newest commits that have no child yet."""
        parents = self.parents()
        leaves = sorted(set(range(len(parents))) - set(parents))
        return set(leaves[-count:]) if count else set()


@dataclass
class Dataset:
    """A built store plus what the harness needs to check responses."""

    directory: str
    versions: list[str]  # version ids in commit order
    digests: dict[str, str]  # version id -> SHA-256 of its payload
    payloads: dict[str, list[str]]  # payloads kept for the caller (see build)
    user_bytes: int  # sum of JSON-encoded committed payload bytes
    logical_bytes: int  # sum of version sizes as the store counts them
    stats: dict[str, float]  # realised dataset.* figures


def payload_digest(payload: Any) -> str:
    """SHA-256 of a line payload, as the builder and the verifier compute it."""
    return hashlib.sha256("\n".join(payload).encode("utf-8")).hexdigest()


def payload_bytes(payload: Any) -> int:
    """Bytes of the payload as a client sends or receives it (compact JSON)."""
    return len(json.dumps(payload, separators=(",", ":")))


def logical_bytes(payload: Any) -> int:
    """The payload's size in the store's own cost unit (``payload_size``)."""
    return sum(len(row) + 1 for row in payload)


def make_row(rng: random.Random, index: int, stamp: int) -> str:
    """One CSV-like line of ~100 bytes; ``stamp`` makes an edited row unique."""
    return "%06d,%08d,%016x,%016x,%016x,%016x" % (
        index,
        stamp,
        rng.getrandbits(64),
        rng.getrandbits(64),
        rng.getrandbits(64),
        rng.getrandbits(64),
    ) + ",lorem-ipsum-dolor"


def edit_window(
    rng: random.Random, payload: list[str], edit_rows: int, stamp: int
) -> list[str]:
    """A copy of ``payload`` with one contiguous window of rows rewritten."""
    edited = list(payload)
    start = rng.randrange(0, max(1, len(payload) - edit_rows + 1))
    for index in range(start, min(len(payload), start + edit_rows)):
        edited[index] = make_row(rng, index, stamp)
    return edited


def build(shape: Shape, directory: str, seed: int, keep: set[int] | None = None) -> Dataset:
    """Create the repository at ``directory`` and commit the whole history.

    Only payloads still needed as a parent of a later commit stay in memory
    while building; ``keep`` names commit indexes whose payloads the caller
    wants back (the commit workload needs its branch heads).
    """
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["init", directory, "--backend", shape.backend])
    if code != 0:
        raise RuntimeError(f"repro init failed with exit code {code}")
    repo = cli.load_repository(directory)

    rng = random.Random(seed)
    parents = shape.parents()
    last_use = {parent: child for child, parent in enumerate(parents) if parent is not None}
    keep = keep or set()

    live: dict[int, list[str]] = {}
    versions: list[str] = []
    digests: dict[str, str] = {}
    kept: dict[str, list[str]] = {}
    user_bytes = logical = 0
    for index, parent in enumerate(parents):
        if parent is None:
            payload = [make_row(rng, row, 0) for row in range(shape.rows)]
            vid = repo.commit(payload, message="root")
        else:
            payload = edit_window(rng, live[parent], shape.edit_rows, index)
            vid = repo.commit(payload, parents=(versions[parent],), message=f"c{index}")
            if last_use[parent] == index:
                del live[parent]
        versions.append(vid)
        digests[vid] = payload_digest(payload)
        user_bytes += payload_bytes(payload)
        logical += logical_bytes(payload)
        if index in last_use:
            live[index] = payload
        if index in keep:
            kept[vid] = payload
    cli.save_repository(repo, directory)

    depths = [repo.chain_stats(vid).num_deltas for vid in versions]
    stats = {
        "dataset.versions": float(len(versions)),
        "dataset.mean_chain_depth": sum(depths) / len(depths),
        "dataset.max_chain_depth": float(max(depths)),
        "dataset.payload_bytes": user_bytes / len(versions),
    }
    return Dataset(directory, versions, digests, kept, user_bytes, logical, stats)
