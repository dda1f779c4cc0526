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
  workload-aware repack versus the pre-repack parent-delta plan;
* **one path** — a local ``repro repack DIR`` runs the same
  ``VersionStoreService.repack`` as ``POST /repack``: it lands in the
  decision log and the staging calibration, and both print the same
  metrics;
* **checked before scanned** — a malformed plan option is rejected before
  the cost-model scan, in-process, over HTTP (400) and from the CLI.
"""

from __future__ import annotations

import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench.batch_bench import build_repository_from_graph
from repro.bench.serve_bench import build_independent_chains
from repro.cli import load_repository, main, open_workload_log, save_repository
from repro.core.problems import default_threshold, solve
from repro.datagen.scenarios import linear_chain
from repro.datagen.workload import sample_accesses, zipfian_workload
from repro.delta.cell_diff import CellDiffEncoder
from repro.delta.command_delta import CommandDeltaEncoder
from repro.delta.compression import CompressedEncoder
from repro.delta.line_diff import LineDiffEncoder, TwoWayLineDiffEncoder
from repro.delta.xor_diff import XorDeltaEncoder
from repro.exceptions import ReproError
from repro.obs import DecisionLog
from repro.server.httpd import serve_in_thread
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

BACKENDS = ["memory", "file", "zip"]


def backend_spec(kind: str, tmp_path) -> str:
    if kind == "memory":
        return "memory://"
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
            vid: repo.checkout(vid).payload for vid in vids
        }

        frequencies = zipfian_workload(vids, exponent=2.0, seed=13)
        instance = repo.problem_instance(access_frequencies=frequencies)
        threshold = default_threshold(instance, 3, factor=1.5)
        report = OnlineRepacker(repo).repack(solve(instance, 3, threshold).plan)

        assert report["epoch"] == 1.0
        for vid in vids:
            assert repo.checkout(vid).payload == expected[vid]
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
            vid: repo.checkout(vid).payload for vid in vids
        }
        repacker = OnlineRepacker(repo)
        # Epoch 1: storage-optimal; epoch 2: recreation-optimal — two very
        # different plans over re-encoded (not original) inputs.
        repacker.repack(solve(repo.problem_instance(), 1).plan)
        repacker.repack(solve(repo.problem_instance(), 2).plan)
        assert repacker.epoch == 2
        for vid in vids:
            assert repo.checkout(vid).payload == expected[vid]


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
            vid: service.repository.checkout(vid).payload
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
            vid: service.repository.checkout(vid).payload
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
        vid: service.repository.checkout(vid).payload
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
            vid: repo.checkout(vid).payload for vid in vids
        }

        repacker = OnlineRepacker(repo)
        plan = solve(repo.problem_instance(), 1).plan  # delta-heavy plan

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
            assert repo.checkout(vid).payload == expected[vid]

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
        chain_cost = repo.store.chain_stats(repo.object_id_of(vids[-1])).phi_total
        assert skewed["per_request"] == pytest.approx(chain_cost)


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #
def report_rows(output: str) -> dict[str, str]:
    """``repro repack``'s two-column metric table as ``{metric: value}``."""
    lines = output.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:2] == ["metric", "value"])
    return dict(line.rstrip().split(None, 1) for line in lines[start + 2 :] if line.strip())


@pytest.fixture
def scans(monkeypatch):
    """Count ``Repository.problem_instance`` calls (the cost-model scan)."""
    calls: list[int] = []
    original = Repository.problem_instance

    def counting(self, **kwargs):
        calls.append(1)
        return original(self, **kwargs)

    monkeypatch.setattr(Repository, "problem_instance", counting)
    return calls


class TestRepackCLI:
    def _init_repo(self, tmp_path, num_versions: int = 8, *init_flags: str) -> str:
        repo_dir = str(tmp_path / "repo")
        assert main(["init", repo_dir, *init_flags]) == 0
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
        rows = report_rows(capsys.readouterr().out)
        assert rows["dry_run"] == "True" and rows["applied"] == "False"
        assert rows["workload_aware"] == "True"
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
        assert report_rows(capsys.readouterr().out)["workload_aware"] == "False"

    def test_local_repack_is_recorded_like_a_served_one(self, tmp_path, capsys):
        """The local command runs VersionStoreService.repack: on a sqlite://
        store its repack is in the catalog's decision log and calibration."""
        repo_dir = self._init_repo(tmp_path, 6, "--backend", "sqlite://catalog.db")
        assert main(["checkout", repo_dir, "v5", "v1", "--batch"]) == 0
        capsys.readouterr()
        assert main(["repack", repo_dir, "--workload"]) == 0
        rows = report_rows(capsys.readouterr().out)
        assert rows["applied"] == "True" and rows["epoch"] == "1"

        repo = load_repository(repo_dir)
        records = [
            record
            for record in DecisionLog(catalog=repo.catalog).tail()
            if record["event"] == "repack"
        ]
        assert len(records) == 1
        assert records[0]["mode"] == "manual" and records[0]["applied"] is True
        assert records[0]["workload_aware"] is True
        assert repo.catalog.load_policy_state("staging_calibration")["observations"] == 1
        assert repo.epoch == 1

    @pytest.mark.parametrize("backend", ["sqlite://catalog.db", "file://objects"])
    def test_local_repack_with_half_life(self, tmp_path, capsys, backend):
        """``--half-life N`` plans on the decayed view at N on either store;
        a catalog-backed log only serves the half-life it was opened with."""
        repo_dir = self._init_repo(tmp_path, 6, "--backend", backend)
        assert main(["checkout", repo_dir, "v5", "v1", "--batch"]) == 0
        capsys.readouterr()
        assert main(["repack", repo_dir, "--half-life", "100"]) == 0
        rows = report_rows(capsys.readouterr().out)
        assert rows["workload_aware"] == "True" and rows["half_life"] == "100.0"
        assert rows["applied"] == "True"

    def test_local_and_remote_tables_name_the_same_metrics(self, tmp_path, capsys):
        repo_dir = self._init_repo(tmp_path, 6)
        assert main(["checkout", repo_dir, "v5", "v1", "--batch"]) == 0
        capsys.readouterr()
        local = {}
        for flags in (["--dry-run"], []):
            assert main(["repack", repo_dir, "--workload", *flags]) == 0
            local[bool(flags)] = report_rows(capsys.readouterr().out)

        repo = load_repository(repo_dir)
        service = VersionStoreService(
            repo,
            on_commit=lambda repository: save_repository(repository, repo_dir),
            workload_log=open_workload_log(repo_dir, repo=repo),
        )
        server, _thread = serve_in_thread(service)
        try:
            remote = {}
            for flags in (["--dry-run"], []):
                assert main(["repack", server.url, "--workload", *flags]) == 0
                remote[bool(flags)] = report_rows(capsys.readouterr().out)
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        for dry_run in (True, False):
            assert set(local[dry_run]) == set(remote[dry_run])
        assert local[False]["epoch"] == "1" and remote[False]["epoch"] == "2"
        assert "expected_cost_after.per_request" in local[False]

    def test_bad_option_errors_out_without_a_scan(self, tmp_path, capsys, scans):
        repo_dir = self._init_repo(tmp_path, 3)
        capsys.readouterr()
        assert main(["repack", repo_dir, "--threshold", "-5"]) == 1
        assert "plan option threshold" in capsys.readouterr().err
        assert scans == []


# --------------------------------------------------------------------- #
# plan options are checked before the cost-model scan
# --------------------------------------------------------------------- #
BAD_OPTIONS = [
    {"algorithm": "nope"},
    {"problem": 9},
    {"problem": None},
    {"threshold": "abc"},
    {"threshold": float("nan")},
    {"threshold_factor": -1.0},
    {"hop_limit": "two"},
    {"hop_limit": -1},
]

#: ``half_life`` must be a positive finite number; ``None`` means unset.
BAD_HALF_LIVES = [[1], "nan", "inf", 0, -1]


class TestPlanOptionsCheckedBeforeTheScan:
    @pytest.mark.parametrize("bad", BAD_OPTIONS, ids=repr)
    def test_service_rejects_without_a_scan(self, bad, scans):
        repo, _ = build_independent_chains(num_chains=1, chain_length=4)
        service = VersionStoreService(repo)
        for call in (service.repack, service.plan, service.policy.cycle):
            with pytest.raises(ReproError, match="plan option"):
                call(**bad)
        assert scans == []
        assert service.repacker.epoch == 0
        assert service.policy.decision_log.tail() == []
        service.close()

    def test_http_answers_400_without_a_scan(self, scans):
        repo, _ = build_independent_chains(num_chains=1, chain_length=4)
        service = VersionStoreService(repo)
        server, _thread = serve_in_thread(service)
        try:
            for path, body in [
                ("/repack", {"algorithm": "nope"}),
                ("/repack", {"adaptive": True, "problem": 9}),
                ("/plan", {"threshold": "abc"}),
                ("/plan", {"hop_limit": None}),
                ("/repack", {"half_life": [1]}),
                ("/repack", {"half_life": "nan", "dry_run": True}),
            ]:
                request = urllib.request.Request(
                    server.url + path, data=json.dumps(body).encode(), method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as error:
                    urllib.request.urlopen(request, timeout=30)
                assert error.value.code == 400, (path, body)
                assert "plan option" in json.loads(error.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert scans == []

    @pytest.mark.parametrize("half_life", BAD_HALF_LIVES, ids=repr)
    def test_bad_half_life_rejected_without_a_scan(self, half_life, scans):
        repo, _ = build_independent_chains(num_chains=1, chain_length=4)
        service = VersionStoreService(repo)
        for dry_run in (True, False):
            with pytest.raises(ReproError, match="plan option half_life"):
                service.repack(half_life=half_life, dry_run=dry_run)
        assert scans == []
        assert service.repacker.epoch == 0
        assert service.policy.decision_log.tail() == []
        service.close()

    def test_null_half_life_means_unset(self):
        repo, _ = build_independent_chains(num_chains=1, chain_length=4)
        service = VersionStoreService(repo)
        server, _thread = serve_in_thread(service)
        try:
            request = urllib.request.Request(
                server.url + "/repack",
                data=json.dumps({"half_life": None, "dry_run": True}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                report = json.loads(response.read())
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert report["half_life"] is None and report["dry_run"] is True

    def test_well_formed_strings_are_accepted(self):
        repo, _ = build_independent_chains(num_chains=1, chain_length=4)
        service = VersionStoreService(repo)
        report = service.plan(problem="6", threshold_factor="2", hop_limit="1")
        assert report["problem"] == 6 and report["threshold"] > 0
        service.close()
