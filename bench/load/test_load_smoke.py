"""Smoke test of the load benchmark: the contract holds and nothing leaks.

Runs ``run.py --quick`` (tiny stores, sub-second windows) as a subprocess, the
way the regression driver does, and checks the shape of what it prints — not
the numbers.  Kept to seconds so tier-1 can collect it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 120


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_names_and_units(contract: dict) -> None:
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < metric["bound"] <= 0.25 for metric in contract["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= contract["end_to_end"][0].items()


def test_quick_run_reports_every_workload_and_metric(contract: dict, tmp_path) -> None:
    output = tmp_path / "BENCH_load.json"
    done = subprocess.run(
        [*RUN, "--quick", "--seed", "0", "--output", str(output)],
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(output.read_text())
    assert {"nproc", "python", "commit", "seed", "loadavg_1min", "noisy"} <= set(report["hygiene"])
    layer_names = {metric["name"] for metric in contract["per_layer"]}
    seen_layers: set[str] = set()
    for workload in (entry["name"] for entry in contract["workloads"]):
        runs = {run["trace"]: run for run in report["runs"] if run["workload"] == workload}
        assert set(runs) == {0, 1}, workload
        for run in runs.values():
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
            assert all(NAME.match(name) for name in run["metrics"])
        for metric in contract["end_to_end"]:  # every one, on every workload, never 0
            assert runs[0]["metrics"][metric["name"]] > 0, (workload, metric["name"])
            assert report["summary"][workload][metric["name"]]["unit"] == metric["unit"]
        seen_layers |= layer_names & set(runs[1]["metrics"])
        assert runs[1]["metrics"]["trace.accounted_ratio"] >= 0.9, workload
    assert seen_layers == layer_names  # each per-layer metric is produced somewhere


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_has_exactly_the_contract_metrics(contract: dict, trace: int) -> None:
    done = subprocess.run(
        [*RUN, "--workload", "commit_repack_mix", "--seed", "7", "--seconds", "0.6",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def _start_long_run() -> subprocess.Popen:
    """A run in its own process group, returned once its server is up."""
    process = subprocess.Popen(
        [*RUN, "--workload", "deep_cold", "--seconds", "60", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    deadline = time.monotonic() + TIMEOUT_S
    while not _children(process.pid):
        assert process.poll() is None and time.monotonic() < deadline, process.stderr.read()
        time.sleep(0.05)
    return process


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


def _group_is_empty(group: int) -> bool:
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.parametrize("how", ["ctrl-c", "terminated", "server-dies"])
def test_no_server_is_orphaned(how: str) -> None:
    process = _start_long_run()
    try:
        time.sleep(0.5)  # let it reach the traffic phases
        if how == "server-dies":
            for child in _children(process.pid):
                os.kill(child, signal.SIGKILL)
        else:
            process.send_signal(signal.SIGINT if how == "ctrl-c" else signal.SIGTERM)
        process.communicate(timeout=TIMEOUT_S)
        assert process.returncode != 0
        assert _group_is_empty(process.pid), "a repro serve process outlived run.py"
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
