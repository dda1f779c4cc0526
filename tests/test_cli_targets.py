"""One CLI path for a directory and for a running server.

``checkout``, ``stats``, ``solve`` and ``repack`` drive a
``VersionStoreService`` either way: a served one over HTTP, or an
in-process one over the directory.  Run against a directory and against a
server of that same directory, each command prints the same stdout and
writes the same files.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import load_repository, main, open_workload_log, save_repository
from repro.server.httpd import serve_in_thread
from repro.server.service import VersionStoreService


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.fixture()
def served_directory(tmp_path):
    """A CLI repository with a fork, served by the same code ``repro serve``
    runs: the directory's state file and workload log."""
    directory = str(tmp_path / "repo")
    assert main(["init", directory]) == 0
    lines = [f"row,{i},{i * 3}" for i in range(50)]
    data = str(tmp_path / "data.csv")
    for step in range(6):
        lines = lines[:25] + [f"patch,{step}"] + lines[25:]
        _write(data, lines)
        assert main(["commit", directory, data, "-m", f"step {step}"]) == 0
    _write(data, lines + ["side,0"])
    assert main(["commit", directory, data, "--parent", "v2", "-m", "side"]) == 0
    repo = load_repository(directory)
    service = VersionStoreService(
        repo,
        on_commit=lambda served: save_repository(served, directory),
        workload_log=open_workload_log(directory, repo=repo),
    )
    server, _thread = serve_in_thread(service, host="127.0.0.1", port=0)
    try:
        yield directory, server.url
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _run(capsys, cwd, argv):
    """Run one command in ``cwd``; its exit code, stdout and written files."""
    os.makedirs(cwd, exist_ok=True)
    before = os.getcwd()
    os.chdir(cwd)
    try:
        code = main(argv)
    finally:
        os.chdir(before)
    files = {}
    for root, _dirs, names in os.walk(cwd):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, cwd)] = handle.read()
    return code, capsys.readouterr().out, files


COMMANDS = [
    ["checkout", "{target}", "v4"],
    ["checkout", "{target}", "v5", "-o", "out.csv"],
    ["checkout", "{target}", "v3", "v6", "--batch", "-o", "outdir"],
    [
        "solve", "{target}", "--problem", "3", "--threshold-factor", "1.5",
        "--plan-output", "plan.json",
    ],
    ["repack", "{target}", "--workload", "--dry-run"],
]


def test_every_command_prints_and_writes_the_same_for_both_targets(
    served_directory, tmp_path, capsys
):
    directory, url = served_directory
    for number, command in enumerate(COMMANDS):
        results = []
        for side, target in (("dir", directory), ("url", url)):
            argv = [part.format(target=target) for part in command]
            results.append(_run(capsys, str(tmp_path / side / str(number)), argv))
        (dir_code, dir_out, dir_files), (url_code, url_out, url_files) = results
        assert dir_code == url_code == 0, command
        assert dir_out == url_out, command
        assert dir_files == url_files, command
        assert dir_out, command


def test_stats_prints_the_same_rows_for_both_targets(served_directory, capsys):
    directory, url = served_directory
    assert main(["checkout", url, "v6"]) == 0
    assert main(["checkout", directory, "v6"]) == 0
    capsys.readouterr()
    tables = []
    for target in (directory, url):
        assert main(["stats", target]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        tables.append({line.split("  ")[0]: line.split()[-1] for line in rows})
    dir_table, url_table = tables
    assert list(dir_table) == list(url_table)
    # Every row of the former directory table and the former server table.
    assert list(dir_table) == [
        "versions",
        "branches",
        "objects",
        "storage cost",
        "store-everything cost",
        "backend",
        "checkout requests",
        "coalesced requests",
        "deltas applied",
        "naive delta applications",
        "recreation cost paid",
        "workload accesses",
        "workload versions",
        "expected recreation/request",
        "repack epoch",
    ]
    serving = {
        "checkout requests",
        "coalesced requests",
        "deltas applied",
        "naive delta applications",
        "recreation cost paid",
    }
    for name in dir_table:
        if name not in serving:
            assert dir_table[name] == url_table[name], name
    # The one checkout the server served is in its counters; the directory's
    # in-process service has served nothing.
    assert url_table["checkout requests"] == "1"
    assert dir_table["checkout requests"] == "0"
    assert dir_table["workload accesses"] == "2"


def test_checkouts_of_either_target_land_in_one_workload_log(served_directory):
    directory, url = served_directory
    assert main(["checkout", directory, "v1"]) == 0
    assert main(["checkout", url, "v1", "v2", "--batch"]) == 0
    repo = load_repository(directory)
    counts = open_workload_log(directory, repo=repo).frequencies(["v1", "v2"])
    assert counts == {"v1": 2.0, "v2": 1.0}


def test_metrics_needs_a_server(served_directory, capsys):
    directory, url = served_directory
    assert main(["stats", directory, "--metrics"]) == 1
    assert "--metrics reads a live registry" in capsys.readouterr().err
    assert main(["stats", url, "--metrics"]) == 0
    assert "repro_requests_total" in capsys.readouterr().out
