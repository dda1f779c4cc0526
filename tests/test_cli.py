"""Tests for the command-line interface of the prototype."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import build_parser, load_repository, main
from repro.exceptions import ReproError


def write_file(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.fixture
def repo_dir(tmp_path):
    directory = str(tmp_path / "repo")
    assert main(["init", directory]) == 0
    return directory


@pytest.fixture
def data_file(tmp_path):
    path = str(tmp_path / "data.csv")
    write_file(path, [f"row,{i},{i * 2}" for i in range(40)])
    return path


class TestBasicCommands:
    def test_init_creates_state(self, repo_dir):
        assert os.path.exists(os.path.join(repo_dir, "repro_state.json"))

    def test_init_refuses_existing_repository(self, repo_dir, data_file, capsys):
        assert main(["commit", repo_dir, data_file, "-m", "first"]) == 0
        state_path = os.path.join(repo_dir, "repro_state.json")
        with open(state_path, "rb") as handle:
            before = handle.read()
        capsys.readouterr()
        assert main(["init", repo_dir]) == 1
        assert "already a repro repository" in capsys.readouterr().err
        with open(state_path, "rb") as handle:
            assert handle.read() == before
        assert main(["log", repo_dir]) == 0
        assert "v0" in capsys.readouterr().out

    def test_unknown_version_error_is_the_plain_message(self, repo_dir, capsys):
        assert main(["checkout", repo_dir, "ghost"]) == 1
        assert capsys.readouterr().err == "error: version 'ghost' does not exist\n"

    def test_init_on_a_regular_file_is_a_clean_error(self, tmp_path, capsys):
        target = tmp_path / "f"
        target.touch()
        assert main(["init", str(target)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.strip()
        ]
        assert "Traceback" not in err
        assert target.is_file() and target.stat().st_size == 0

    def test_commit_and_log(self, repo_dir, data_file, capsys):
        assert main(["commit", repo_dir, data_file, "-m", "first"]) == 0
        assert main(["log", repo_dir]) == 0
        output = capsys.readouterr().out
        assert "first" in output
        assert "v0" in output

    def test_commit_then_checkout_roundtrip(self, repo_dir, data_file, tmp_path, capsys):
        main(["commit", repo_dir, data_file, "-m", "first"])
        out_path = str(tmp_path / "restored.csv")
        assert main(["checkout", repo_dir, "v0", "-o", out_path]) == 0
        with open(data_file) as original, open(out_path) as restored:
            assert original.read() == restored.read()

    def test_checkout_to_stdout(self, repo_dir, data_file, capsys):
        main(["commit", repo_dir, data_file])
        capsys.readouterr()
        assert main(["checkout", repo_dir, "v0"]) == 0
        assert "row,0,0" in capsys.readouterr().out

    def test_successive_commits_share_storage(self, repo_dir, data_file, tmp_path, capsys):
        main(["commit", repo_dir, data_file, "-m", "base"])
        changed = str(tmp_path / "changed.csv")
        write_file(changed, [f"row,{i},{i * 2}" for i in range(40)] + ["extra,1,2"])
        main(["commit", repo_dir, changed, "-m", "small change"])
        capsys.readouterr()
        assert main(["stats", repo_dir]) == 0
        output = capsys.readouterr().out
        assert "versions" in output and "storage cost" in output
        repo = load_repository(repo_dir)
        naive = sum(v.size for v in repo.graph.versions)
        assert repo.total_storage_cost() < naive

    def test_branch_listing_and_creation(self, repo_dir, data_file, capsys):
        main(["commit", repo_dir, data_file])
        assert main(["branch", repo_dir, "experiment"]) == 0
        capsys.readouterr()
        assert main(["branch", repo_dir]) == 0
        output = capsys.readouterr().out
        assert "experiment" in output and "main" in output

    def test_commit_on_branch_and_merge(self, repo_dir, data_file, tmp_path, capsys):
        main(["commit", repo_dir, data_file, "-m", "base"])
        main(["branch", repo_dir, "side"])
        side_file = str(tmp_path / "side.csv")
        write_file(side_file, [f"row,{i},{i * 2}" for i in range(40)] + ["side,0,0"])
        main(["commit", repo_dir, side_file, "--branch", "side", "-m", "side work"])
        merged_file = str(tmp_path / "merged.csv")
        write_file(merged_file, [f"row,{i},{i * 2}" for i in range(40)] + ["side,0,0", "main,0,0"])
        # Return to main, then merge the side branch head (v1) into it.
        assert main(["switch", repo_dir, "main"]) == 0
        assert main(["merge", repo_dir, "v1", merged_file, "-m", "merge side"]) == 0
        repo = load_repository(repo_dir)
        merge_heads = repo.graph.merges()
        assert len(merge_heads) == 1

    def test_errors_return_nonzero(self, repo_dir, tmp_path, capsys):
        missing_repo = str(tmp_path / "not-a-repo")
        assert main(["log", missing_repo]) == 1
        assert main(["checkout", repo_dir, "does-not-exist"]) == 1


class TestOptimizationCommands:
    @pytest.fixture
    def populated_repo(self, repo_dir, tmp_path):
        lines = [f"row,{i},{i * 3}" for i in range(60)]
        for step in range(5):
            path = str(tmp_path / f"step{step}.csv")
            lines = lines[:30] + [f"patch,{step},0"] + lines[30:]
            write_file(path, lines)
            main(["commit", repo_dir, path, "-m", f"step {step}"])
        return repo_dir

    def test_solve_prints_metrics_and_writes_plan(self, populated_repo, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.json")
        code = main(
            ["solve", populated_repo, "--problem", "3", "--threshold-factor", "1.5",
             "--plan-output", plan_path]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "storage cost" in output
        with open(plan_path) as handle:
            payload = json.load(handle)
        assert payload["materialized"]

    def test_solve_problem1_needs_no_threshold(self, populated_repo, capsys):
        assert main(["solve", populated_repo, "--problem", "1"]) == 0
        assert "mst" in capsys.readouterr().out

    def test_repack_reduces_storage_and_preserves_data(self, populated_repo, tmp_path, capsys):
        repo_before = load_repository(populated_repo)
        payloads = {
            vid: repo_before.checkout(vid).payload
            for vid in repo_before.graph.version_ids
        }
        assert main(["repack", populated_repo, "--problem", "1"]) == 0
        repo_after = load_repository(populated_repo)
        for vid, payload in payloads.items():
            assert repo_after.checkout(vid).payload == payload
        assert repo_after.total_storage_cost() <= repo_before.total_storage_cost() + 1e-6

    def test_parser_rejects_unknown_problem(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve", "somewhere", "--problem", "9"])


class TestBackendsAndBatch:
    def test_init_with_zip_backend_roundtrip(self, tmp_path, capsys):
        directory = str(tmp_path / "zipped")
        assert main(["init", directory, "--backend", "zip://objects"]) == 0
        assert "zip://objects" in capsys.readouterr().out
        data = str(tmp_path / "data.csv")
        write_file(data, [f"row,{i}" for i in range(20)])
        assert main(["commit", directory, data, "-m", "first"]) == 0
        objects = os.listdir(os.path.join(directory, "objects"))
        assert objects and all(name.endswith(".objz") for name in objects)
        capsys.readouterr()
        assert main(["checkout", directory, "v0"]) == 0
        assert "row,0" in capsys.readouterr().out

    def test_init_rejects_memory_backend(self, tmp_path, capsys):
        # Each CLI invocation is a new process; a memory:// store would lose
        # the objects while the state file keeps referencing them.
        assert main(["init", str(tmp_path / "mem"), "--backend", "memory://"]) == 1
        assert "memory://" in capsys.readouterr().err
        assert not (tmp_path / "mem").exists()

    def test_init_rejects_http_backend(self, tmp_path, capsys):
        for scheme, spec in [("http", "http://h:1"), ("shard", "shard://2/file://objs")]:
            directory = tmp_path / scheme
            assert main(["init", str(directory), "--backend", spec]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and f"unknown storage backend scheme {scheme!r}" in err
            assert not directory.exists()

    def test_state_records_backend_spec(self, tmp_path):
        directory = str(tmp_path / "zipped")
        main(["init", directory, "--backend", "zip://objects"])
        with open(os.path.join(directory, "repro_state.json")) as handle:
            assert json.load(handle)["backend"] == "zip://objects"

    def test_save_hand_built_repository_keeps_real_backend(self, tmp_path):
        """save_repository must record the store's actual backend, not the
        CLI default, for repositories built through the public API."""
        from repro.cli import save_repository
        from repro.storage.repository import Repository

        objects_dir = str(tmp_path / "external-objects")
        repo = Repository(backend=f"zip://{objects_dir}")
        repo.commit(["row,1", "row,2"], message="external")
        state_dir = str(tmp_path / "repo")
        os.makedirs(state_dir)
        save_repository(repo, state_dir)

        reloaded = load_repository(state_dir)
        assert reloaded.checkout("v0").payload == ["row,1", "row,2"]

    def test_save_absolutizes_cwd_relative_backend_paths(self, tmp_path, monkeypatch):
        """A cwd-relative spec must not be reinterpreted as repo-relative
        when the state file is loaded later."""
        from repro.cli import save_repository
        from repro.storage.repository import Repository

        monkeypatch.chdir(tmp_path)
        repo = Repository(backend="file://relative-objects")
        repo.commit(["row,1"], message="relative")
        state_dir = str(tmp_path / "meta")
        os.makedirs(state_dir)
        save_repository(repo, state_dir)
        with open(os.path.join(state_dir, "repro_state.json")) as handle:
            spec = json.load(handle)["backend"]
        assert os.path.isabs(spec.partition("://")[2])
        assert load_repository(state_dir).checkout("v0").payload == ["row,1"]

    @pytest.mark.parametrize(
        "spec", ["zip://relative-objects", "sqlite://relative.db", "relative-objects"]
    )
    def test_save_anchors_cwd_relative_specs_of_every_scheme(
        self, spec, tmp_path, monkeypatch
    ):
        """Saving anchors a relative path at the cwd whatever the scheme; a
        bare path is recorded as the file:// spec it stands for."""
        from repro.cli import save_repository
        from repro.storage.repository import Repository

        monkeypatch.chdir(tmp_path)
        repo = Repository(backend=spec)
        repo.commit(["row,1"], message="relative")
        state_dir = str(tmp_path / "meta")
        os.makedirs(state_dir)
        save_repository(repo, state_dir)
        with open(os.path.join(state_dir, "repro_state.json")) as handle:
            saved = json.load(handle)["backend"]
        scheme, _, path = saved.partition("://")
        assert scheme == (spec.partition("://")[0] if "://" in spec else "file")
        assert path == os.path.join(str(tmp_path), spec.partition("://")[2] or spec)
        monkeypatch.chdir(tmp_path / "meta")
        assert load_repository(state_dir).checkout("v0").payload == ["row,1"]

    @pytest.mark.parametrize(
        "spec, stored",
        [("file://objs", "objs"), ("zip://objz", "objz"), ("sqlite://meta.db", "meta.db")],
    )
    def test_relative_init_specs_live_inside_the_repository(
        self, spec, stored, tmp_path, monkeypatch, capsys
    ):
        """init/commit/checkout read a relative --backend path against the
        repository directory, not the cwd of each invocation."""
        monkeypatch.chdir(tmp_path)
        directory = str(tmp_path / "repo")
        assert main(["init", directory, "--backend", spec]) == 0
        data = str(tmp_path / "data.csv")
        write_file(data, ["row,1", "row,2"])
        assert main(["commit", directory, data, "-m", "first"]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        out = str(tmp_path / "out.csv")
        assert main(["checkout", directory, "v0", "-o", out]) == 0
        with open(out) as handle:
            assert handle.read().splitlines() == ["row,1", "row,2"]
        assert os.path.exists(os.path.join(directory, stored))
        assert not os.path.exists(tmp_path / stored)
        assert sorted(os.listdir(elsewhere)) == []

    def test_batch_checkout_writes_files_and_reports(self, repo_dir, tmp_path, capsys):
        lines = [f"row,{i},{i}" for i in range(30)]
        for step in range(3):
            path = str(tmp_path / f"step{step}.csv")
            lines = lines + [f"patch,{step}"]
            write_file(path, lines)
            main(["commit", repo_dir, path, "-m", f"step {step}"])
        out_dir = str(tmp_path / "restored")
        capsys.readouterr()
        code = main(["checkout", repo_dir, "v0", "v1", "v2", "--batch", "-o", out_dir])
        assert code == 0
        output = capsys.readouterr().out
        assert "delta applications" in output
        for vid in ("v0", "v1", "v2"):
            assert os.path.exists(os.path.join(out_dir, f"{vid}.txt"))
        with open(os.path.join(out_dir, "v2.txt")) as handle:
            assert handle.read().splitlines() == lines

    def test_batch_checkout_unknown_version_fails(self, repo_dir, data_file):
        main(["commit", repo_dir, data_file])
        assert main(["checkout", repo_dir, "v0", "ghost", "--batch"]) == 1

    def test_batch_checkout_rejects_file_as_output_dir(
        self, repo_dir, data_file, tmp_path, capsys
    ):
        main(["commit", repo_dir, data_file])
        existing_file = str(tmp_path / "restored.csv")
        write_file(existing_file, ["already here"])
        code = main(["checkout", repo_dir, "v0", "--batch", "-o", existing_file])
        assert code == 1
        assert "not a directory" in capsys.readouterr().err

    def test_batch_checkout_without_output_prints_payloads(
        self, repo_dir, data_file, tmp_path, capsys
    ):
        main(["commit", repo_dir, data_file, "-m", "base"])
        changed = str(tmp_path / "changed.csv")
        write_file(changed, [f"row,{i},{i * 2}" for i in range(40)] + ["extra,1,2"])
        main(["commit", repo_dir, changed, "-m", "second"])
        capsys.readouterr()
        assert main(["checkout", repo_dir, "v0", "v1", "--batch"]) == 0
        output = capsys.readouterr().out
        assert "### v0" in output and "### v1" in output
        assert "extra,1,2" in output

    def test_save_rejects_memory_backed_repository(self, tmp_path):
        from repro.cli import save_repository
        from repro.storage.repository import Repository

        repo = Repository()  # default memory:// backend
        repo.commit(["row,1"])
        with pytest.raises(ReproError):
            save_repository(repo, str(tmp_path))


class TestPersistence:
    def test_state_survives_reload(self, repo_dir, data_file):
        main(["commit", repo_dir, data_file, "-m", "persisted"])
        repo = load_repository(repo_dir)
        assert len(repo) == 1
        assert repo.head() == "v0"
        assert repo.checkout("v0").payload[0].startswith("row,0")

    def test_load_missing_repository_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_repository(str(tmp_path / "nothing"))


class TestServeSurface:
    """`repro serve`'s options, the removed ones, and the README table."""

    @staticmethod
    def serve_flags() -> set[str]:
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action.choices, dict) and "serve" in action.choices
        )
        return {
            option
            for action in subparsers.choices["serve"]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }

    @pytest.mark.parametrize(
        "removed",
        [
            ["--strategy", "dfs"],
            ["--cache-admission", "cost"],
            ["--worker-model", "process"],
            ["--repack-budget", "1"],
            ["--frontend-procs", "2"],
            ["--workers", "4"],
        ],
    )
    def test_removed_flags_are_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "repo", *removed])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--repack-horizon", "--lease-ttl", "--lease-renew"])
    def test_non_finite_or_non_positive_values_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "repo", "--adaptive-repack", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be positive and finite" in err

    def test_join_needs_a_catalog(self, tmp_path, capsys):
        directory = str(tmp_path / "repo")
        assert main(["init", directory, "--backend", "file://objects"]) == 0
        capsys.readouterr()
        assert main(["serve", directory, "--join", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: replica groups need a shared metadata catalog")
        assert err.count("\n") == 1

    @staticmethod
    def recording_sinks(monkeypatch) -> list:
        import repro.obs
        from repro.obs import JsonLogSink

        sinks = []

        class RecordingSink(JsonLogSink):
            def __init__(self, path):
                super().__init__(path)
                sinks.append(self)

        monkeypatch.setattr(repro.obs, "JsonLogSink", RecordingSink)
        return sinks

    def test_refused_join_leaves_no_log_file(self, tmp_path, monkeypatch, capsys):
        sinks = self.recording_sinks(monkeypatch)
        directory = str(tmp_path / "repo")
        log_path = tmp_path / "ev.jsonl"
        assert main(["init", directory, "--backend", "file://objects"]) == 0
        argv = ["serve", directory, "--join", "--port", "0", "--log-json", str(log_path)]
        assert main(argv) == 1
        assert "replica groups need a shared metadata catalog" in capsys.readouterr().err
        assert not log_path.exists()
        assert len(sinks) == 1 and sinks[0]._fh is None

    def test_port_in_use_leaves_no_log_file(self, tmp_path, monkeypatch, capsys):
        import socket

        sinks = self.recording_sinks(monkeypatch)
        directory = str(tmp_path / "repo")
        log_path = tmp_path / "ev.jsonl"
        assert main(["init", directory]) == 0
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = str(taken.getsockname()[1])
            argv = ["serve", directory, "--port", port, "--log-json", str(log_path)]
            assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not log_path.exists()
        assert len(sinks) == 1 and sinks[0]._fh is None

    def test_refused_start_keeps_an_existing_log_file(self, tmp_path, capsys):
        directory = str(tmp_path / "repo")
        log_path = tmp_path / "ev.jsonl"
        log_path.write_text("")
        assert main(["init", directory, "--backend", "file://objects"]) == 0
        argv = ["serve", directory, "--join", "--port", "0", "--log-json", str(log_path)]
        assert main(argv) == 1
        assert log_path.exists()

    def test_removed_keyword_arguments_are_rejected(self, tmp_path):
        from repro.server.service import VersionStoreService
        from repro.storage.batch import BatchMaterializer
        from repro.storage.cache_tiers import (
            LRUPayloadCache,
            SpillTier,
            TieredPayloadCache,
        )
        from repro.storage.objects import ObjectStore
        from repro.storage.repack import (
            AdaptiveRepackController,
            StagingCostCalibration,
        )
        from repro.storage.repository import Repository

        repo = Repository()
        spill_dir = str(tmp_path)
        for factory, removed in [
            (
                lambda **kw: Repository(**kw),
                ("batch_cache_size", "batch_strategy", "directory"),
            ),
            (lambda **kw: ObjectStore(**kw), ("directory",)),
            (
                lambda **kw: BatchMaterializer(repo.store, repo.encoder, **kw),
                ("strategy", "eviction", "admission", "worker_model", "max_workers"),
            ),
            (
                lambda **kw: VersionStoreService(repo, **kw),
                (
                    "strategy",
                    "cache_admission",
                    "worker_model",
                    "repack_budget",
                    "max_workers",
                ),
            ),
            (
                lambda **kw: AdaptiveRepackController(**kw),
                (
                    "trigger_factor",
                    "standdown_factor",
                    "drift_threshold",
                    "min_observations",
                ),
            ),
            (
                lambda **kw: StagingCostCalibration(**kw),
                ("alpha", "min_scale", "max_scale"),
            ),
            (lambda **kw: LRUPayloadCache(4, **kw), ("admission", "eviction_sample")),
            (lambda **kw: SpillTier(spill_dir, 64, **kw), ("eviction_sample",)),
            (
                lambda **kw: TieredPayloadCache(
                    4, spill_dir=spill_dir, spill_bytes=64, **kw
                ),
                ("eviction_sample",),
            ),
        ]:
            for name in removed:
                with pytest.raises(TypeError, match=name):
                    factory(**{name: "cost"})

    def test_readme_flag_table_names_exactly_the_parser_options(self):
        import re

        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as handle:
            rows = [line for line in handle if line.startswith("| `--")]
        documented = {
            flag
            for row in rows
            for flag in re.findall(r"--[a-z][a-z-]*", row.split("|")[1])
        }
        assert documented == self.serve_flags()
