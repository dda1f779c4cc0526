"""Tests for parallel materialization and the incremental cost index.

Covers the acceptance properties of the per-chain concurrency refactor:

* **parallel byte parity** — N threads hammering disjoint and shared
  chains through one service always receive exactly the bytes a
  sequential checkout produces;
* **cost-index parity** — the store's incremental index prices every
  chain identically to a full payload scan, across every encoder ×
  backend, before and after a repack — and answers without touching the
  backend for objects committed through the store;
* **exclusive-window instrumentation** — a repack on a populated store
  performs no payload read inside the coordinator's exclusive barrier
  (the write pause is the swap window alone);
* **repack during parallel serving** — concurrent readers across
  independent chains never observe a wrong byte while epochs swap under
  them;
* **no policy unless armed** — a service without `adaptive_repack` never
  repacks on its own;
* **knob plumbing** — `repro repack --half-life` and the single-stripe
  baseline configuration.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.cli import build_parser
from repro.core.problems import solve
from repro.delta.cell_diff import CellDiffEncoder
from repro.delta.command_delta import CommandDeltaEncoder
from repro.delta.compression import CompressedEncoder
from repro.delta.line_diff import LineDiffEncoder, TwoWayLineDiffEncoder
from repro.delta.xor_diff import XorDeltaEncoder
from repro.server.service import VersionStoreService
from repro.storage.concurrency import EpochCoordinator, StripedLockManager
from repro.storage.repack import OnlineRepacker
from repro.storage.repository import Repository
from repro.bench.serve_bench import build_independent_chains


# --------------------------------------------------------------------- #
# payload factories (shared with the repack battery's conventions)
# --------------------------------------------------------------------- #
def line_payloads(num_versions: int) -> list[list[str]]:
    payload = [f"row,{i},{i * i}" for i in range(30)]
    chain = [payload]
    for step in range(1, num_versions):
        payload = list(payload)
        payload[step * 5 % len(payload)] = f"edited,{step}"
        payload.append(f"appended,{step}")
        chain.append(payload)
    return chain


def table_payloads(num_versions: int) -> list[list[list[str]]]:
    table = [[f"r{i}", str(i), str(i * 2)] for i in range(20)]
    chain = [table]
    for step in range(1, num_versions):
        table = [list(row) for row in table]
        table[step % len(table)][1] = f"edit{step}"
        table.append([f"new{step}", "0", "0"])
        chain.append(table)
    return chain


def bytes_payloads(num_versions: int) -> list[bytes]:
    payload = bytes(range(256)) * 3
    chain = [payload]
    for step in range(1, num_versions):
        mutable = bytearray(payload)
        mutable[step * 11 % len(mutable)] ^= 0xFF
        payload = bytes(mutable)
        chain.append(payload)
    return chain


ENCODERS = {
    "line": (LineDiffEncoder, line_payloads),
    "two-way-line": (TwoWayLineDiffEncoder, line_payloads),
    "cell": (CellDiffEncoder, table_payloads),
    "command": (CommandDeltaEncoder, table_payloads),
    "xor": (XorDeltaEncoder, bytes_payloads),
    "compressed-line": (lambda: CompressedEncoder(LineDiffEncoder()), line_payloads),
}

BACKENDS = ["memory", "file", "zip", "sqlite"]


def backend_spec(kind: str, tmp_path) -> str:
    if kind == "memory":
        return "memory://"
    return f"{kind}://{tmp_path}/objects"


# --------------------------------------------------------------------- #
# concurrency primitives
# --------------------------------------------------------------------- #
class TestPrimitives:
    def test_striped_locks_are_stable_and_reentrant(self):
        manager = StripedLockManager(8)
        assert manager.stripe_for("abc") == manager.stripe_for("abc")
        with manager.holding("abc"):
            with manager.holding("abc"):  # re-entrant
                pass

    def test_single_stripe_degenerates_to_global_lock(self):
        manager = StripedLockManager(1)
        assert manager.lock_for("a") is manager.lock_for("b")

    def test_coordinator_allows_concurrent_readers(self):
        coordinator = EpochCoordinator()
        inside = threading.Barrier(3, timeout=10)

        def reader() -> None:
            with coordinator.shared():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not thread.is_alive() for thread in threads)

    def test_coordinator_exclusive_excludes_readers(self):
        coordinator = EpochCoordinator()
        observed: list = []
        release = threading.Event()
        entered = threading.Event()

        def writer() -> None:
            with coordinator.exclusive():
                entered.set()
                release.wait(timeout=10)
                observed.append("writer-done")

        def reader() -> None:
            entered.wait(timeout=10)
            with coordinator.shared():
                observed.append("reader")

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        writer_thread.start()
        entered.wait(timeout=10)
        reader_thread.start()
        time.sleep(0.05)  # the reader must be parked at the coordinator
        assert observed == []
        assert coordinator.exclusive_held
        release.set()
        writer_thread.join(timeout=10)
        reader_thread.join(timeout=10)
        assert observed == ["writer-done", "reader"]
        assert coordinator.exclusive_epochs == 1


# --------------------------------------------------------------------- #
# parallel checkout stress
# --------------------------------------------------------------------- #
def _parallel_stress(
    service: VersionStoreService,
    schedules: list[list],
    expected: dict,
) -> None:
    """Run one thread per schedule; every response must match ``expected``."""
    errors: list = []
    mismatches: list = []
    barrier = threading.Barrier(len(schedules), timeout=10)

    def worker(schedule: list) -> None:
        barrier.wait()
        for vid in schedule:
            try:
                response = service.checkout(vid)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)
                return
            if response.payload != expected[vid]:
                mismatches.append(vid)
                return

    threads = [threading.Thread(target=worker, args=(s,)) for s in schedules]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert errors == []
    assert mismatches == []


class TestParallelCheckout:
    def test_disjoint_chains_byte_parity(self):
        repo, chains = build_independent_chains(
            num_chains=4, chain_length=10, seed=3
        )
        expected = {
            vid: repo.checkout(vid).payload
            for vids in chains.values()
            for vid in vids
        }
        service = VersionStoreService(repo, cache_size=0)
        _parallel_stress(
            service,
            [list(vids) * 3 for vids in chains.values()],
            expected,
        )
        stats = service.stats()
        assert stats["serving"]["checkout_requests"] == 4 * 10 * 3
        assert stats["concurrency"]["lock_stripes"] == 64

    def test_shared_chain_byte_parity(self):
        repo, chains = build_independent_chains(
            num_chains=1, chain_length=16, seed=5
        )
        vids = chains[0]
        expected = {
            vid: repo.checkout(vid).payload for vid in vids
        }
        service = VersionStoreService(repo, cache_size=256)
        rng = random.Random(9)
        schedules = [
            [vids[rng.randrange(len(vids))] for _ in range(30)] for _ in range(6)
        ]
        _parallel_stress(service, schedules, expected)
        # Same-chain requests serialize on one stripe and cooperate through
        # the warm cache: total replays stay far below the naive count.
        stats = service.stats()["serving"]
        assert stats["deltas_applied"] < stats["naive_delta_applications"]

    def test_mixed_chains_with_batches(self):
        repo, chains = build_independent_chains(
            num_chains=3, chain_length=8, seed=7
        )
        all_vids = [vid for vids in chains.values() for vid in vids]
        expected = {
            vid: repo.checkout(vid).payload for vid in all_vids
        }
        service = VersionStoreService(repo, cache_size=128)
        errors: list = []
        barrier = threading.Barrier(4, timeout=10)

        def batcher() -> None:
            barrier.wait()
            for _ in range(5):
                result = service.checkout_many(all_vids)
                for vid in all_vids:
                    if result.items[vid].payload != expected[vid]:
                        errors.append(("batch", vid))

        def single(chain: int) -> None:
            barrier.wait()
            for vid in chains[chain] * 4:
                if service.checkout(vid).payload != expected[vid]:
                    errors.append(("single", vid))

        threads = [threading.Thread(target=batcher)] + [
            threading.Thread(target=single, args=(chain,)) for chain in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []

    def test_coalescing_still_single_replay(self):
        repo, chains = build_independent_chains(num_chains=1, chain_length=12)
        head = chains[0][-1]
        service = VersionStoreService(repo, cache_size=256)
        barrier = threading.Barrier(8, timeout=10)
        responses: list = []

        def request() -> None:
            barrier.wait()
            responses.append(service.checkout(head))

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(responses) == 8
        # However the 8 requests interleaved (true coalescing or serialized
        # leaders hitting the warm cache), the chain was replayed once.
        stats = service.stats()["serving"]
        assert stats["deltas_applied"] == 11
        leaders = [r for r in responses if not r.coalesced]
        assert stats["coalesced_requests"] == len(responses) - len(leaders)
        assert len({tuple(map(str, r.payload)) for r in responses}) == 1
        assert service._inflight == {}


# --------------------------------------------------------------------- #
# incremental cost index vs full payload scan
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("encoder_key", sorted(ENCODERS))
class TestCostIndexParity:
    def _build(self, encoder_key, backend_kind, tmp_path):
        encoder_factory, payload_factory = ENCODERS[encoder_key]
        payloads = payload_factory(8)
        repo = Repository(
            encoder=encoder_factory(),
            backend=backend_spec(backend_kind, tmp_path),
            cache_size=0,
        )
        vids = [repo.commit(payloads[0], message="base")]
        for payload in payloads[1:6]:
            vids.append(repo.commit(payload, message="chain"))
        for payload in payloads[6:]:
            vids.append(repo.commit(payload, parents=[vids[2]], message="fork"))
        return repo, vids

    def _full_scan_cost(self, repo: Repository, vid) -> tuple[float, int]:
        """Ground truth by replaying the chain objects themselves."""
        phi = 0.0
        deltas = 0
        for obj in repo.store.delta_chain(repo.object_id_of(vid)):
            if obj.is_delta:
                phi += obj.payload.recreation_cost
                deltas += 1
            else:
                phi += obj.storage_cost()
        return phi, deltas

    def test_index_matches_full_scan(self, encoder_key, backend_kind, tmp_path):
        repo, vids = self._build(encoder_key, backend_kind, tmp_path)
        for vid in vids:
            stats = repo.chain_stats(vid)
            phi, deltas = self._full_scan_cost(repo, vid)
            assert stats.phi_total == pytest.approx(phi)
            assert stats.num_deltas == deltas
            # The index also agrees with the cost a cold checkout pays.
            paid = repo.checkout(vid).recreation_cost
            assert stats.phi_total == pytest.approx(paid)

    def test_index_survives_repack(self, encoder_key, backend_kind, tmp_path):
        repo, vids = self._build(encoder_key, backend_kind, tmp_path)
        OnlineRepacker(repo).repack(solve(repo.problem_instance(), 1).plan)
        for vid in vids:
            stats = repo.chain_stats(vid)
            phi, deltas = self._full_scan_cost(repo, vid)
            assert stats.phi_total == pytest.approx(phi)
            assert stats.num_deltas == deltas


class TestCostIndexIncrementality:
    def test_commit_time_index_answers_without_backend_reads(self):
        """Chains committed through a store are priced from the index alone:
        zero backend reads, zero payload replays."""
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(25)]
        vids = [repo.commit(payload)]
        for step in range(1, 10):
            payload = payload + [f"a,{step}"]
            vids.append(repo.commit(payload))

        backend = repo.store.backend
        original_get = backend.get
        reads: list = []

        def counting_get(key):
            reads.append(key)
            return original_get(key)

        backend.get = counting_get
        try:
            for vid in vids:
                repo.chain_stats(vid)
                repo.store.chain_root(repo.object_id_of(vid))
        finally:
            backend.get = original_get
        assert reads == []

    def test_removed_objects_leave_the_index(self):
        repo = Repository(cache_size=0)
        vid = repo.commit(["solo"])
        object_id = repo.object_id_of(vid)
        assert repo.store.chain_stats(object_id).length == 1
        repo.store.remove(object_id)
        with pytest.raises(Exception):
            repo.store.chain_stats(object_id)


# --------------------------------------------------------------------- #
# the exclusive window contains no payload access
# --------------------------------------------------------------------- #
class TestExclusiveWindowInstrumentation:
    def test_repack_never_reads_payloads_inside_the_barrier(self):
        repo, chains = build_independent_chains(num_chains=2, chain_length=10)
        service = VersionStoreService(repo, cache_size=64)
        for vids in chains.values():
            for vid in vids:
                service.checkout(vid)

        backend = repo.store.backend
        original_get = backend.get
        violations: list = []

        def instrumented_get(key):
            if service.coordinator.exclusive_held:
                violations.append(key)
            return original_get(key)

        backend.get = instrumented_get
        try:
            report = service.repack(problem=3, threshold_factor=1.5)
        finally:
            backend.get = original_get
        assert report["epoch"] == 1
        # The swap (GC referenced-set, cache drop, storage totals) priced
        # everything from the incremental index: not one backend read
        # happened while the exclusive barrier was held.
        assert violations == []
        # And serving afterwards is intact.
        for vids in chains.values():
            for vid in vids:
                service.checkout(vid)

    def test_measurement_and_staging_run_under_shared_access(self):
        """Checkouts flow during the cost-model scan and the rebuild; the
        coordinator sees exactly one exclusive section for the swap (plus
        none from this test's own checkouts)."""
        repo, chains = build_independent_chains(num_chains=2, chain_length=8)
        service = VersionStoreService(repo, cache_size=64)
        vids = chains[0]
        for vid in vids:
            service.checkout(vid)
        before = service.coordinator.exclusive_epochs
        service.repack(problem=1)
        assert service.coordinator.exclusive_epochs == before + 1


# --------------------------------------------------------------------- #
# repack during parallel serving
# --------------------------------------------------------------------- #
def _repack_under_parallel_load(
    num_chains: int, chain_length: int, iterations: int, num_repacks: int
) -> None:
    repo, chains = build_independent_chains(
        num_chains=num_chains, chain_length=chain_length, seed=13
    )
    expected = {
        vid: repo.checkout(vid).payload
        for vids in chains.values()
        for vid in vids
    }
    service = VersionStoreService(repo, cache_size=8)
    errors: list = []
    mismatches: list = []
    stop = threading.Event()
    barrier = threading.Barrier(num_chains + 1, timeout=10)

    def reader(chain: int) -> None:
        rng = random.Random(chain)
        vids = chains[chain]
        barrier.wait()
        count = 0
        while count < iterations or not stop.is_set():
            vid = vids[rng.randrange(len(vids))]
            try:
                response = service.checkout(vid)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)
                return
            if response.payload != expected[vid]:
                mismatches.append((chain, vid))
                return
            count += 1

    threads = [
        threading.Thread(target=reader, args=(chain,)) for chain in range(num_chains)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    try:
        for round_number in range(num_repacks):
            problem = 1 if round_number % 2 else 3
            service.repack(
                problem=problem,
                threshold_factor=1.5 if problem == 3 else None,
            )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    assert errors == []
    assert mismatches == []
    assert service.repacker.epoch == num_repacks
    for vids in chains.values():
        for vid in vids:
            assert service.checkout(vid).payload == expected[vid]


class TestRepackDuringParallelServing:
    def test_parallel_readers_never_see_wrong_bytes(self):
        """Tier-1 smoke version: 3 chains × 2 epochs under parallel load."""
        _repack_under_parallel_load(
            num_chains=3, chain_length=8, iterations=25, num_repacks=2
        )

    @pytest.mark.slow
    def test_stress_parallel_chains_many_epochs(self):
        """The heavy battery: 6 parallel chains across 4 repack epochs.

        Scale note: the problem-1 epochs re-encode the whole graph onto
        storage-optimal (very long) chains, so every later checkout and
        measurement pass costs multiples of the parent-delta layout —
        runtime grows superlinearly with versions × epochs.  This size
        finishes in well under a minute while still hammering every
        epoch transition from six parallel chains.
        """
        _repack_under_parallel_load(
            num_chains=6, chain_length=12, iterations=80, num_repacks=4
        )


# --------------------------------------------------------------------- #
# auto-repack policy
# --------------------------------------------------------------------- #
class TestAutoRepack:
    def test_unarmed_service_never_repacks(self):
        repo, chains = build_independent_chains(num_chains=1, chain_length=6)
        service = VersionStoreService(repo, cache_size=0, auto_repack_interval=1)
        for _ in range(5):
            service.checkout(chains[0][-1])
        assert service.repacker.epoch == 0
        assert service.stats()["serving"]["auto_repacks"] == 0

    def test_a_commit_after_close_does_not_rearm_the_policy(self):
        repo, chains = build_independent_chains(num_chains=2, chain_length=6)
        service = VersionStoreService(
            repo, cache_size=1, adaptive_repack=True, auto_repack_interval=1
        )
        assert service.close() is True
        before = service.policy.controller.evaluations
        service.commit(["after", "close"])
        for step in range(40):
            service.checkout(chains[step % 2][-1])
        time.sleep(0.2)  # a background evaluation, had one started, runs now
        assert service.policy.controller.evaluations == before
        assert service.repacker.epoch == 0


# --------------------------------------------------------------------- #
# knob plumbing
# --------------------------------------------------------------------- #
class TestKnobs:
    def test_repack_parser_accepts_half_life(self):
        parser = build_parser()
        args = parser.parse_args(["repack", "repo", "--half-life", "100"])
        assert args.half_life == 100.0

    def test_single_stripe_single_worker_is_the_baseline(self):
        repo, chains = build_independent_chains(num_chains=2, chain_length=5)
        service = VersionStoreService(
            repo, cache_size=0, lock_stripes=1
        )
        expected = {
            vid: repo.checkout(vid).payload
            for vids in chains.values()
            for vid in vids
        }
        for vids in chains.values():
            for vid in vids:
                assert service.checkout(vid).payload == expected[vid]
