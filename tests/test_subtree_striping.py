"""Tests for subtree striping and the replay engine's thread pool.

* **stripe keys** — the store-global ``ObjectStore.subtree_stripe_key``
  keys a chain by the node below its deepest fork point (the chain root
  for linear chains), and the store's fork index survives object removal;
* **fork-fan byte identity** — every version of a fork-heavy graph
  materializes to exactly the bytes a sequential checkout produces,
  batched and one at a time, whatever the pool width, and a batch fetches
  each union-tree node exactly once;
* **plumbing** — the CLI parser threads ``--frontend-procs`` through;
* **executor lifecycle** — ``BatchMaterializer`` works as a context
  manager and its ``weakref.finalize`` fallback shuts the pool down when
  the materializer is dropped without ``close()``.
"""

from __future__ import annotations

import gc

import pytest

from repro.cli import build_parser
from repro.storage.backends import FilesystemBackend
from repro.storage.batch import BatchMaterializer
from repro.storage.repository import Repository
from repro.storage.testing import FlakyBackend


# --------------------------------------------------------------------- #
# graph factories
# --------------------------------------------------------------------- #
def build_fork_repo(
    *,
    backend=None,
    num_subtrees: int = 2,
    depth: int = 4,
) -> tuple[Repository, dict[int, list]]:
    """One root version with ``num_subtrees`` delta subtrees forked off it.

    Every subtree edits different rows, so each fork child is stored as a
    delta on the *same* root object — the shape whose replays used to
    serialize on the shared chain root.
    """
    repo = Repository(cache_size=0, backend=backend)
    base = [f"row,{i},{i * i}" for i in range(60)]
    root = repo.commit(base, message="root")
    subtrees: dict[int, list] = {}
    for tree in range(num_subtrees):
        payload, prev, vids = list(base), root, []
        for step in range(depth):
            payload = list(payload)
            payload[(tree * 17 + step * 5) % len(payload)] = f"t{tree},edit,{step}"
            payload.append(f"t{tree},appended,{step}")
            prev = repo.commit(payload, parents=[prev], message=f"t{tree} s{step}")
            vids.append(prev)
        subtrees[tree] = vids
    return repo, subtrees


def expected_payloads(repo: Repository, vids) -> dict:
    return {vid: repo.checkout(vid, record_stats=False).payload for vid in vids}


def all_version_ids(subtrees: dict[int, list]) -> list:
    return [vid for vids in subtrees.values() for vid in vids]


# --------------------------------------------------------------------- #
# stripe keys
# --------------------------------------------------------------------- #
class TestStripeKeys:
    def test_store_global_key_splits_fork_subtrees(self, tmp_path):
        repo, subtrees = build_fork_repo(backend=f"file://{tmp_path}/objects")
        store = repo.store
        left = store.subtree_stripe_key(repo.object_id_of(subtrees[0][-1]))
        right = store.subtree_stripe_key(repo.object_id_of(subtrees[1][-1]))
        assert left is not None and right is not None
        assert left != right

    def test_store_global_key_is_root_for_linear_chain(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", num_subtrees=1
        )
        store = repo.store
        tip_object = repo.object_id_of(subtrees[0][-1])
        assert store.subtree_stripe_key(tip_object) == store.chain_ids(tip_object)[0]

    def test_remove_maintains_fork_index(self, tmp_path):
        repo, subtrees = build_fork_repo(
            backend=f"file://{tmp_path}/objects", num_subtrees=2, depth=1
        )
        store = repo.store
        left_object = repo.object_id_of(subtrees[0][0])
        right_object = repo.object_id_of(subtrees[1][0])
        assert store.subtree_stripe_key(left_object) == left_object
        store.remove(right_object)
        # The fork collapsed; the survivor keys by the chain root again.
        assert (
            store.subtree_stripe_key(left_object)
            == store.chain_ids(left_object)[0]
        )


# --------------------------------------------------------------------- #
# fork-fan byte identity at every pool width
# --------------------------------------------------------------------- #
class TestForkFanByteIdentity:
    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_batched_and_single_checkouts_match(self, tmp_path, max_workers):
        backend = FlakyBackend(FilesystemBackend(str(tmp_path / "objects")))
        repo, subtrees = build_fork_repo(backend=backend, num_subtrees=3, depth=3)
        vids = all_version_ids(subtrees)
        expected = expected_payloads(repo, vids)
        with BatchMaterializer(
            repo.store, repo.encoder, cache_size=0, max_workers=max_workers
        ) as materializer:
            before = backend.gets  # no fault armed: a get counter
            batch = materializer.materialize_many(
                [(vid, repo.object_id_of(vid)) for vid in vids]
            )
            # The union tree is the root plus one node per version below
            # it, and each is fetched exactly once with the cache disabled.
            assert backend.gets - before == len(vids) + 1
            for vid in vids:
                assert batch.items[vid].payload == expected[vid], vid
            # Singles after the batch (cache disabled, so these re-replay).
            for vid in vids:
                item = materializer.materialize(repo.object_id_of(vid))
                assert item.payload == expected[vid], vid


# --------------------------------------------------------------------- #
# plumbing
# --------------------------------------------------------------------- #
def test_serve_parser_accepts_frontend_procs():
    parser = build_parser()
    args = parser.parse_args(["serve", "repo", "--frontend-procs", "2"])
    assert args.frontend_procs == 2
    assert parser.parse_args(["serve", "repo"]).frontend_procs == 1


# --------------------------------------------------------------------- #
# executor lifecycle
# --------------------------------------------------------------------- #
def two_root_requests(tmp_path) -> tuple[Repository, list]:
    """A fork repo plus an unrelated full object: two root groups, which
    is what makes a batch start the pool."""
    repo, subtrees = build_fork_repo(backend=f"file://{tmp_path}/objects", depth=2)
    other = repo.commit([f"unrelated,{i}" for i in range(60)], message="other root")
    vids = all_version_ids(subtrees) + [other]
    requests = [(vid, repo.object_id_of(vid)) for vid in vids]
    assert len({repo.store.chain_ids(oid)[0] for _, oid in requests}) == 2
    return repo, requests


class TestExecutorLifecycle:
    def test_context_manager_shuts_executors_down(self, tmp_path):
        repo, requests = two_root_requests(tmp_path)
        with BatchMaterializer(
            repo.store, repo.encoder, max_workers=2
        ) as materializer:
            materializer.materialize_many(requests)
            assert materializer._executors
        assert not materializer._executors
        materializer.close()  # idempotent

    def test_finalizer_reaps_abandoned_executors(self, tmp_path):
        repo, requests = two_root_requests(tmp_path)
        materializer = BatchMaterializer(repo.store, repo.encoder, max_workers=2)
        materializer.materialize_many(requests)
        holder = materializer._executors
        assert holder
        finalizer = materializer._finalizer
        del materializer
        gc.collect()
        assert not finalizer.alive
        assert not holder
