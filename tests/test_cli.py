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
        ],
    )
    def test_removed_flags_are_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "repo", *removed])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_keyword_arguments_are_rejected(self):
        from repro.server.service import VersionStoreService
        from repro.storage.batch import BatchMaterializer
        from repro.storage.cache_tiers import LRUPayloadCache
        from repro.storage.repository import Repository

        repo = Repository()
        for factory, removed in [
            (lambda **kw: Repository(**kw), ("batch_cache_size", "batch_strategy")),
            (
                lambda **kw: BatchMaterializer(repo.store, repo.encoder, **kw),
                ("strategy", "eviction", "admission", "worker_model"),
            ),
            (
                lambda **kw: VersionStoreService(repo, **kw),
                ("strategy", "cache_admission", "worker_model"),
            ),
            (lambda **kw: LRUPayloadCache(4, **kw), ("admission",)),
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
