"""Repack/concurrency test battery for the online repack subsystem.

Covers the acceptance properties of the workload-aware online repack:

* **byte identity** — after a repack (any encoder × any backend) every
  version materializes byte-for-byte identically to its pre-repack self;
* **epoch isolation** — checkouts running concurrently with a repack never
  observe a wrong byte (readers are served entirely from one epoch);
* **write pause** — commits issued during a repack wait at the gate and
  land safely afterwards;
* **effectiveness** — on a Zipf workload over the LC scenario, the
  deltas applied per request drop measurably (≥ 20%) after a
  workload-aware repack versus the pre-repack parent-delta plan.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.bench.batch_bench import build_repository_from_graph
from repro.cli import main
from repro.datagen.scenarios import linear_chain
from repro.datagen.workload import sample_accesses, zipfian_workload
from repro.delta.cell_diff import CellDiffEncoder
from repro.delta.command_delta import CommandDeltaEncoder
from repro.delta.compression import CompressedEncoder
from repro.delta.line_diff import LineDiffEncoder, TwoWayLineDiffEncoder
from repro.delta.xor_diff import XorDeltaEncoder
from repro.exceptions import ReproError
from repro.server.service import VersionStoreService
from repro.storage.repack import OnlineRepacker, expected_workload_cost
from repro.storage.repository import Repository
from repro.storage.workload_log import WorkloadLog


# --------------------------------------------------------------------- #
# payload factories (one per payload family the encoders understand)
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

BACKENDS = ["memory", "file", "zip", "shard"]


def backend_spec(kind: str, tmp_path) -> str:
    if kind == "memory":
        return "memory://"
    if kind == "shard":
        return f"shard://2/file://{tmp_path}/objects"
    return f"{kind}://{tmp_path}/objects"


def build_branchy_repo(encoder, payload_factory, backend: str) -> tuple[Repository, list]:
    """A chain plus a fork off its middle — exercises non-linear plans."""
    payloads = payload_factory(8)
    repo = Repository(encoder=encoder, backend=backend, cache_size=0)
    vids = [repo.commit(payloads[0], message="base")]
    for payload in payloads[1:6]:
        vids.append(repo.commit(payload, message="chain"))
    # Fork from the middle of the chain.
    for payload in payloads[6:]:
        vids.append(repo.commit(payload, parents=[vids[2]], message="fork"))
    return repo, vids


def build_service(num_versions: int = 20, **service_kwargs):
    repo = Repository(cache_size=0)
    payload = [f"row,{i},{i * 3}" for i in range(40)]
    vids = [repo.commit(payload, message="base")]
    for step in range(1, num_versions):
        payload = payload + [f"appended,{step}"]
        vids.append(repo.commit(payload, message=f"step {step}"))
    return VersionStoreService(repo, **service_kwargs), vids


# --------------------------------------------------------------------- #
# property: byte identity across every encoder × backend
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("encoder_key", sorted(ENCODERS))
class TestRepackByteIdentity:
    def test_workload_repack_preserves_every_version(
        self, encoder_key, backend_kind, tmp_path
    ):
        encoder_factory, payload_factory = ENCODERS[encoder_key]
        repo, vids = build_branchy_repo(
            encoder_factory(), payload_factory, backend_spec(backend_kind, tmp_path)
        )
        expected = {
            vid: repo.checkout(vid, record_stats=False).payload for vid in vids
        }

        frequencies = zipfian_workload(vids, exponent=2.0, seed=13)
        repacker = OnlineRepacker(repo)
        result = repacker.compute_plan(
            problem=3, threshold_factor=1.5, frequencies=frequencies
        )
        report = repacker.repack(result.plan)

        assert report["epoch"] == 1.0
        for vid in vids:
            assert repo.checkout(vid, record_stats=False).payload == expected[vid]
        # The store holds exactly the objects current chains reference.
        referenced = {
            obj.object_id
            for vid in vids
            for obj in repo.store.delta_chain(repo.object_id_of(vid))
        }
        assert set(repo.store.object_ids()) == referenced

    def test_two_successive_epochs_stay_identical(
        self, encoder_key, backend_kind, tmp_path
    ):
        encoder_factory, payload_factory = ENCODERS[encoder_key]
        repo, vids = build_branchy_repo(
            encoder_factory(), payload_factory, backend_spec(backend_kind, tmp_path)
        )
        expected = {
            vid: repo.checkout(vid, record_stats=False).payload for vid in vids
        }
        repacker = OnlineRepacker(repo)
        # Epoch 1: storage-optimal; epoch 2: recreation-optimal — two very
        # different plans over re-encoded (not original) inputs.
        repacker.repack(repacker.compute_plan(problem=1).plan)
        repacker.repack(repacker.compute_plan(problem=2).plan)
        assert repacker.epoch == 2
        for vid in vids:
            assert repo.checkout(vid, record_stats=False).payload == expected[vid]


# --------------------------------------------------------------------- #
# service-level semantics
# --------------------------------------------------------------------- #
class TestServiceRepack:
    def test_dry_run_changes_nothing(self):
        service, vids = build_service(8)
        for vid in vids:
            service.checkout(vid)
        objects_before = set(service.repository.store.object_ids())
        report = service.repack(dry_run=True)
        assert report["dry_run"] is True
        assert report["epoch"] == 0
        assert "storage_after" not in report
        assert set(service.repository.store.object_ids()) == objects_before
        assert service.stats()["repack"]["epoch"] == 0

    def test_repack_reports_and_bumps_epoch(self):
        service, vids = build_service(10)
        for vid in vids:
            service.checkout(vid)
        report = service.repack(problem=3, threshold_factor=1.5)
        assert report["workload_aware"] is True
        assert report["epoch"] == 1
        assert report["num_versions"] == float(len(vids))
        assert service.stats()["repack"]["epoch"] == 1
        # Second repack over the already-repacked store is fine.
        assert service.repack()["epoch"] == 2

    def test_empty_repository_rejected(self):
        service = VersionStoreService(Repository())
        with pytest.raises(ReproError):
            service.repack()

    def test_uniform_fallback_when_log_empty(self):
        service, vids = build_service(6)
        report = service.repack()  # nothing ever checked out
        assert report["workload_aware"] is False
        assert report["epoch"] == 1

    def test_post_repack_serving_is_byte_identical(self):
        service, vids = build_service(15)
        expected = {
            vid: service.repository.checkout(vid, record_stats=False).payload
            for vid in vids
        }
        for vid in vids:
            service.checkout(vid)
        service.repack(problem=3, threshold_factor=1.5)
        for vid in vids:
            assert service.checkout(vid).payload == expected[vid]

    def test_commit_during_repack_waits_at_gate(self):
        """The write pause: a commit issued mid-repack lands only after the
        swap, and the repacked plan still covers exactly the old versions."""
        service, vids = build_service(10)
        for vid in vids:
            service.checkout(vid)

        rebuild_started = threading.Event()
        release_rebuild = threading.Event()
        original_rebuild = service.repacker.rebuild

        def slow_rebuild(plan, **kwargs):
            rebuild_started.set()
            assert release_rebuild.wait(timeout=10)
            return original_rebuild(plan, **kwargs)

        service.repacker.rebuild = slow_rebuild
        repack_done = threading.Event()
        commit_done = threading.Event()
        committed: list = []

        def run_repack():
            service.repack(problem=1)
            repack_done.set()

        def run_commit():
            assert rebuild_started.wait(timeout=10)
            committed.append(service.commit(["late", "arrival"], parents=[vids[0]]))
            commit_done.set()

        repack_thread = threading.Thread(target=run_repack)
        commit_thread = threading.Thread(target=run_commit)
        repack_thread.start()
        commit_thread.start()
        assert rebuild_started.wait(timeout=10)
        # Give the commit a moment to reach the gate; it must not complete
        # while the repack holds it.
        assert not commit_done.wait(timeout=0.3)
        release_rebuild.set()
        repack_thread.join(timeout=30)
        commit_thread.join(timeout=30)
        assert repack_done.is_set() and commit_done.is_set()
        # The late commit is alive and readable after the swap.
        assert service.checkout(committed[0]).payload == ["late", "arrival"]

    def test_checkouts_proceed_during_rebuild(self):
        """Readers are not blocked by phase 1 (only the short swap window)."""
        service, vids = build_service(10)
        expected = {
            vid: service.repository.checkout(vid, record_stats=False).payload
            for vid in vids
        }
        rebuild_started = threading.Event()
        release_rebuild = threading.Event()
        original_rebuild = service.repacker.rebuild

        def slow_rebuild(plan, **kwargs):
            rebuild_started.set()
            assert release_rebuild.wait(timeout=10)
            return original_rebuild(plan, **kwargs)

        service.repacker.rebuild = slow_rebuild
        repack_thread = threading.Thread(target=lambda: service.repack(problem=1))
        repack_thread.start()
        try:
            assert rebuild_started.wait(timeout=10)
            # The repack is parked mid-rebuild; checkouts must still flow.
            for vid in vids:
                assert service.checkout(vid).payload == expected[vid]
        finally:
            release_rebuild.set()
            repack_thread.join(timeout=30)
        for vid in vids:
            assert service.checkout(vid).payload == expected[vid]


def _run_concurrent_stress(
    num_versions: int, num_readers: int, iterations: int, num_repacks: int
) -> None:
    service, vids = build_service(num_versions, cache_size=8)
    expected = {
        vid: service.repository.checkout(vid, record_stats=False).payload
        for vid in vids
    }
    mismatches: list = []
    errors: list = []
    stop = threading.Event()
    barrier = threading.Barrier(num_readers + 1)

    def reader(seed: int) -> None:
        rng = random.Random(seed)
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
                mismatches.append((vid, count))
                return
            count += 1

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(num_readers)]
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
    # Post-stress, a fresh read of every version is still byte-identical.
    for vid in vids:
        assert service.checkout(vid).payload == expected[vid]


class TestConcurrentRepack:
    def test_checkouts_during_repack_never_see_wrong_bytes(self):
        """Tier-1 smoke version of the stress battery."""
        _run_concurrent_stress(
            num_versions=12, num_readers=3, iterations=30, num_repacks=2
        )

    @pytest.mark.slow
    def test_stress_many_readers_many_epochs(self):
        """The heavy battery: 6 reader threads hammering random checkouts
        across 6 repack epochs — not a single wrong byte allowed."""
        _run_concurrent_stress(
            num_versions=24, num_readers=6, iterations=150, num_repacks=6
        )


# --------------------------------------------------------------------- #
# effectiveness: the acceptance scenario (Zipf over LC)
# --------------------------------------------------------------------- #
class TestWorkloadAwareEffectiveness:
    def test_zipf_over_lc_drops_deltas_per_request(self):
        """Acceptance: after a workload-aware repack the deltas applied per
        request drop ≥ 20% versus the pre-repack parent-delta plan.

        The service runs with the cache disabled so every request pays its
        full chain — isolating the *plan's* effect from cache warmth.
        """
        graph = linear_chain(num_versions=40, seed=7).graph
        repo = build_repository_from_graph(graph, seed=7)
        service = VersionStoreService(repo, cache_size=0)
        vids = repo.graph.version_ids
        # Zipf popularity with recent versions hottest: the realistic worst
        # case for the parent-delta layout, whose newest versions sit at
        # the ends of the longest chains.
        workload = zipfian_workload(list(reversed(vids)), exponent=2.0, shuffle=False)
        stream = sample_accesses(workload, 150, seed=3)

        before = service.stats()["serving"]["deltas_applied"]
        for vid in stream:
            service.checkout(vid)
        cold_deltas = service.stats()["serving"]["deltas_applied"] - before

        report = service.repack(problem=3, threshold_factor=1.5)
        assert report["workload_aware"] is True
        assert (
            report["expected_cost_after"]["per_request"]
            < report["expected_cost_before"]["per_request"]
        )

        before = service.stats()["serving"]["deltas_applied"]
        for vid in stream:
            service.checkout(vid)
        repacked_deltas = service.stats()["serving"]["deltas_applied"] - before

        assert repacked_deltas <= 0.8 * cold_deltas

    def test_ilp_problem5_respects_weighted_threshold(self):
        """The exact solver and LMG optimize the same weighted quantity on
        workload instances, so the θ default_threshold prices fits both."""
        from repro.core.problems import default_threshold, solve

        repo = Repository(cache_size=0)
        payload = [f"row,{i},{i * i}" for i in range(30)]
        vids = [repo.commit(payload)]
        for step in range(1, 10):
            payload = payload + [f"a,{step}", f"b,{step}"]
            vids.append(repo.commit(payload))
        frequencies = {vid: 1.0 for vid in vids}
        frequencies[vids[-1]] = 50.0  # the deepest version is scorching hot
        instance = repo.problem_instance(access_frequencies=frequencies)
        # The reference (factor 1) is the weighted materialize-everything
        # cost — the minimum achievable — so any slack above it is feasible.
        threshold = default_threshold(instance, 5, factor=1.3)
        lmg = solve(instance, 5, threshold=threshold, algorithm="lmg")
        ilp = solve(instance, 5, threshold=threshold, algorithm="ilp")
        for result in (lmg, ilp):
            assert result.metrics.weighted_recreation <= threshold * (1 + 1e-9)
        # Exact minimizes the same objective, so it can't store more.
        assert ilp.metrics.storage_cost <= lmg.metrics.storage_cost * (1 + 1e-9)

    def test_failed_rebuild_leaks_no_staged_objects(self):
        """An exception mid-staging must leave the store exactly as it was."""
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(25)]
        vids = [repo.commit(payload)]
        for step in range(1, 8):
            payload = payload + [f"a,{step}"]
            vids.append(repo.commit(payload))
        objects_before = set(repo.store.object_ids())
        expected = {
            vid: repo.checkout(vid, record_stats=False).payload for vid in vids
        }

        repacker = OnlineRepacker(repo)
        plan = repacker.compute_plan(problem=1).plan  # delta-heavy plan

        original_diff = repo.encoder.diff
        calls = {"n": 0}

        def failing_diff(source, target):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("disk full")
            return original_diff(source, target)

        repo.encoder.diff = failing_diff
        try:
            with pytest.raises(RuntimeError):
                repacker.rebuild(plan)
        finally:
            repo.encoder.diff = original_diff

        assert set(repo.store.object_ids()) == objects_before
        assert repacker.epoch == 0
        for vid in vids:
            assert repo.checkout(vid, record_stats=False).payload == expected[vid]

    def test_expected_cost_helper_matches_uniform_mean(self):
        repo = Repository(cache_size=0)
        payload = [f"row,{i}" for i in range(20)]
        vids = [repo.commit(payload)]
        for step in range(1, 5):
            payload = payload + [f"a,{step}"]
            vids.append(repo.commit(payload))
        uniform = expected_workload_cost(repo)
        assert uniform["weight"] == float(len(vids))
        assert uniform["per_request"] == pytest.approx(
            uniform["total"] / len(vids)
        )
        # Weighting everything onto one version prices that version's chain.
        skewed = expected_workload_cost(repo, {vids[-1]: 5.0})
        chain_cost = repo.materializer.predicted_chain_cost(
            repo.object_id_of(vids[-1])
        )
        assert skewed["per_request"] == pytest.approx(chain_cost)


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #
class TestRepackCLI:
    def _init_repo(self, tmp_path, num_versions: int = 8) -> str:
        repo_dir = str(tmp_path / "repo")
        assert main(["init", repo_dir]) == 0
        data = tmp_path / "data.txt"
        lines = [f"row,{i}" for i in range(20)]
        for step in range(num_versions):
            lines = lines + [f"append,{step}"]
            data.write_text("\n".join(lines) + "\n")
            assert main(["commit", repo_dir, str(data), "-m", f"step {step}"]) == 0
        return repo_dir

    def test_checkout_records_into_workload_log(self, tmp_path, capsys):
        repo_dir = self._init_repo(tmp_path, num_versions=4)
        out = tmp_path / "out.txt"
        assert main(["checkout", repo_dir, "v3", "-o", str(out)]) == 0
        assert main(["checkout", repo_dir, "v3", "v1", "--batch"]) == 0
        capsys.readouterr()
        log = WorkloadLog(str(tmp_path / "repo" / "workload.log"))
        assert log.counts() == {"v3": 2, "v1": 1}

    def test_repack_workload_dry_run(self, tmp_path, capsys):
        repo_dir = self._init_repo(tmp_path)
        main(["checkout", repo_dir, "v7", "-o", str(tmp_path / "o.txt")])
        capsys.readouterr()
        assert main(["repack", repo_dir, "--workload", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "dry run: plan not applied" in output
        assert "workload aware" in output
        # Dry run applied nothing: the store still checks out and a second,
        # real repack still sees the original encoding.
        assert main(["repack", repo_dir, "--workload"]) == 0

    def test_repack_workload_applies_and_preserves_bytes(self, tmp_path, capsys):
        repo_dir = self._init_repo(tmp_path)
        restored = tmp_path / "before.txt"
        assert main(["checkout", repo_dir, "v7", "-o", str(restored)]) == 0
        before = restored.read_text()
        assert main(["repack", repo_dir, "--workload"]) == 0
        output = capsys.readouterr().out
        assert "expected_cost_before" in output
        after_file = tmp_path / "after.txt"
        assert main(["checkout", repo_dir, "v7", "-o", str(after_file)]) == 0
        assert after_file.read_text() == before

    def test_repack_empty_workload_falls_back_to_uniform(self, tmp_path, capsys):
        repo_dir = self._init_repo(tmp_path, num_versions=3)
        assert main(["repack", repo_dir, "--workload"]) == 0
        assert "uniform workload" in capsys.readouterr().out
