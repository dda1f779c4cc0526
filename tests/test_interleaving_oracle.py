"""Randomized interleaving oracle: the service vs a naive in-memory store.

A seeded thread pool issues a mixed schedule of commit / checkout /
checkout_many / repack operations against one
:class:`~repro.server.service.VersionStoreService` while a trivial oracle
(a locked dict of version → payload, appended on commit acknowledgement)
tracks what every version must contain.  Every checkout's payload is
byte-compared against the oracle — across cache hits, coalesced requests,
union-tree batches, commits interleaving with reads, and epoch swaps from
concurrent repacks.  Schedules are deterministic per seed; a failure
prints the exact seed to replay (``stress_seed`` fixture in conftest).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.server.service import VersionStoreService
from repro.storage.repository import Repository


class Oracle:
    """The naive store: version id → exact expected payload."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._payloads: dict[str, list[str]] = {}
        self._known: list[str] = []

    def record(self, vid: str, payload: list[str]) -> None:
        with self._lock:
            self._payloads[vid] = list(payload)
            self._known.append(vid)

    def expected(self, vid: str) -> list[str]:
        with self._lock:
            return self._payloads[vid]

    def sample(self, rng: random.Random, count: int = 1) -> list[str]:
        with self._lock:
            if not self._known:
                return []
            return [self._known[rng.randrange(len(self._known))] for _ in range(count)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._known)


def _mutate(rng: random.Random, payload: list[str], worker: int, step: int) -> list[str]:
    mutated = list(payload)
    if mutated and rng.random() < 0.5:
        mutated[rng.randrange(len(mutated))] = f"edited,w{worker},s{step}"
    mutated.append(f"appended,w{worker},s{step},{rng.randrange(1000)}")
    return mutated


def run_interleaving(
    seed: int,
    *,
    num_workers: int = 4,
    ops_per_worker: int = 30,
    cache_size: int = 8,
) -> tuple[int, int]:
    """Run one seeded schedule; returns (checkouts_compared, repacks)."""
    repo = Repository(cache_size=0)
    service = VersionStoreService(
        repo, cache_size=cache_size, lock_stripes=8
    )
    oracle = Oracle()
    # Disjoint seed lineages so independent chains actually exist.
    for chain in range(num_workers):
        payload = [f"chain-{chain},row-{row}" for row in range(12)]
        vid = service.commit(payload, parents=[], message=f"seed {chain}")
        oracle.record(vid, payload)

    errors: list[BaseException] = []
    mismatches: list[tuple[str, int]] = []
    repacks_done = [0]
    barrier = threading.Barrier(num_workers, timeout=30)

    def worker(worker_id: int) -> None:
        rng = random.Random(seed * 1000 + worker_id)
        barrier.wait()
        try:
            for step in range(ops_per_worker):
                roll = rng.random()
                if roll < 0.15:  # commit
                    (parent,) = oracle.sample(rng) or [None]
                    if parent is None:
                        continue
                    payload = _mutate(rng, oracle.expected(parent), worker_id, step)
                    vid = service.commit(
                        payload, parents=[parent], message=f"w{worker_id} s{step}"
                    )
                    oracle.record(vid, payload)
                elif roll < 0.20 and worker_id == 0:  # repack (one operator)
                    service.repack(use_workload=True, threshold_factor=2.5)
                    repacks_done[0] += 1
                elif roll < 0.45:  # batched checkout
                    vids = oracle.sample(rng, count=1 + rng.randrange(4))
                    result = service.checkout_many(vids)
                    for vid in set(vids):
                        if result.items[vid].payload != oracle.expected(vid):
                            mismatches.append((vid, worker_id))
                else:  # single checkout
                    (vid,) = oracle.sample(rng) or [None]
                    if vid is None:
                        continue
                    if service.checkout(vid).payload != oracle.expected(vid):
                        mismatches.append((vid, worker_id))
        except BaseException as error:
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(worker_id,), name=f"oracle-{worker_id}")
        for worker_id in range(num_workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    service.close()

    assert not errors, f"seed={seed}: worker raised {errors[0]!r}"
    assert not mismatches, (
        f"seed={seed}: {len(mismatches)} checkout(s) diverged from the "
        f"oracle, first at {mismatches[0]}"
    )
    # Final sweep: after all interleaving (and any epoch swaps), every
    # version the oracle knows must still read back byte-identically.
    with oracle._lock:
        known = list(oracle._known)
    for vid in known:
        assert service.checkout(vid).payload == oracle.expected(vid), (
            f"seed={seed}: post-run divergence at {vid}"
        )
    total = len(known)
    assert total >= num_workers  # the schedule actually committed
    return total, repacks_done[0]


@pytest.mark.parametrize("stress_seed", [7, 19], indirect=True)
def test_interleaved_operations_match_oracle(stress_seed):
    run_interleaving(stress_seed)


def test_oracle_catches_interleaving_with_forced_repacks(stress_seed):
    """Every worker's traffic crosses at least one epoch swap."""
    repo = Repository(cache_size=0)
    service = VersionStoreService(repo, cache_size=4, lock_stripes=4)
    oracle = Oracle()
    rng = random.Random(stress_seed)
    payload = [f"row-{i}" for i in range(10)]
    vid = service.commit(payload, parents=[], message="base")
    oracle.record(vid, payload)
    for step in range(8):
        payload = _mutate(rng, payload, 0, step)
        vid = service.commit(payload, parents=[vid], message=f"s{step}")
        oracle.record(vid, payload)

    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        reader_rng = random.Random(stress_seed + 1)
        try:
            while not stop.is_set():
                for target in oracle.sample(reader_rng, count=3):
                    assert service.checkout(target).payload == oracle.expected(
                        target
                    ), f"seed={stress_seed}: {target} diverged mid-repack"
        except BaseException as error:
            errors.append(error)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for _ in range(3):
            service.repack(use_workload=False, threshold_factor=2.0)
    finally:
        stop.set()
        thread.join(timeout=60)
    service.close()
    assert not errors, f"seed={stress_seed}: {errors[0]!r}"
    assert service.repacker.epoch == 3


@pytest.mark.slow
@pytest.mark.parametrize("stress_seed", [3, 11, 29], indirect=True)
def test_interleaving_stress_battery(stress_seed):
    """The heavier schedule the CI fault-injection job runs."""
    run_interleaving(stress_seed, num_workers=6, ops_per_worker=60, cache_size=16)


def run_multi_replica_interleaving(
    seed: int,
    tmp_path,
    *,
    num_workers: int = 4,
    ops_per_worker: int = 25,
) -> tuple[int, int]:
    """Two replica services on one sqlite catalog vs the naive oracle.

    Each worker is pinned to one of two :class:`VersionStoreService`
    replicas sharing a ``sqlite://`` catalog (the replica-group topology
    of ``repro serve --join``); the schedule interleaves commits through
    both, checkouts from both, explicit syncs and repacks.  Repacks only
    run on the planner-lease holder — the other replica adopts each swap
    through its catalog poll.  A version committed through one replica
    may not be visible on the other yet, so checkout retries once after a
    ``sync()``; payloads must then be byte-identical to the oracle's.
    """
    import os

    from repro.exceptions import NotLeaseHolderError

    spec = "sqlite://" + os.path.join(tmp_path, "oracle-catalog.db")
    repos = [Repository(backend=spec, cache_size=0) for _ in range(2)]
    services = [
        VersionStoreService(
            repo,
            cache_size=8,
            lock_stripes=8,
            replica_id=f"replica-{index}",
            lease_ttl=30.0,
        )
        for index, repo in enumerate(repos)
    ]
    oracle = Oracle()
    for chain in range(num_workers):
        payload = [f"chain-{chain},row-{row}" for row in range(10)]
        vid = services[chain % 2].commit(payload, parents=[], message=f"seed {chain}")
        oracle.record(vid, payload)

    errors: list[str] = []
    mismatches: list[tuple[str, int]] = []
    repacks_done = [0]
    barrier = threading.Barrier(num_workers, timeout=30)

    def checkout_with_sync(service: VersionStoreService, vid: str):
        try:
            return service.checkout(vid)
        except KeyError:  # VersionNotFoundError included
            # Committed through the peer replica; adopt its state.
            service.repository.sync(force=True)
            return service.checkout(vid)

    def worker(worker_id: int) -> None:
        rng = random.Random(seed * 1000 + worker_id)
        service = services[worker_id % 2]
        barrier.wait()
        try:
            for step in range(ops_per_worker):
                roll = rng.random()
                if roll < 0.20:  # commit through this replica
                    (parent,) = oracle.sample(rng) or [None]
                    if parent is None:
                        continue
                    payload = _mutate(rng, oracle.expected(parent), worker_id, step)
                    try:
                        vid = service.commit(
                            payload, parents=[parent],
                            message=f"w{worker_id} s{step}",
                        )
                    except KeyError:  # parent committed through the peer
                        service.repository.sync(force=True)
                        vid = service.commit(
                            payload, parents=[parent],
                            message=f"w{worker_id} s{step}",
                        )
                    oracle.record(vid, payload)
                elif roll < 0.25:  # repack (only the lease holder may)
                    try:
                        report = service.repack(
                            use_workload=True, threshold_factor=2.5
                        )
                        if report.get("applied"):
                            repacks_done[0] += 1
                    except NotLeaseHolderError:
                        pass  # this worker's replica is a follower
                elif roll < 0.35:  # explicit sync
                    service.repository.sync(force=True)
                else:  # checkout, cross-replica
                    (vid,) = oracle.sample(rng) or [None]
                    if vid is None:
                        continue
                    result = checkout_with_sync(service, vid)
                    if result.payload != oracle.expected(vid):
                        mismatches.append((vid, worker_id))
        except BaseException:
            import traceback

            errors.append(traceback.format_exc())

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"replica-oracle-{i}")
        for i in range(num_workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    assert not errors, f"seed={seed}: worker raised\n{errors[0]}"
    assert not mismatches, (
        f"seed={seed}: {len(mismatches)} cross-replica checkout(s) diverged, "
        f"first at {mismatches[0]}"
    )
    # Post-convergence: every version reads byte-identically from BOTH
    # replicas — the group serves one logical store.
    for service in services:
        service.repository.sync(force=True)
    with oracle._lock:
        known = list(oracle._known)
    for vid in known:
        payloads = [checkout_with_sync(s, vid).payload for s in services]
        assert payloads[0] == payloads[1] == oracle.expected(vid), (
            f"seed={seed}: replicas diverged at {vid}"
        )
    for service in services:
        service.close()
    assert len(known) >= num_workers
    return len(known), repacks_done[0]


@pytest.mark.parametrize("stress_seed", [13], indirect=True)
def test_multi_replica_interleaving_matches_oracle(stress_seed, tmp_path):
    run_multi_replica_interleaving(stress_seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("stress_seed", [5, 17], indirect=True)
def test_multi_replica_interleaving_battery(stress_seed, tmp_path):
    run_multi_replica_interleaving(
        stress_seed, tmp_path, num_workers=6, ops_per_worker=50
    )
