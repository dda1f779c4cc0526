"""Several processes recording into one workload store lose nothing.

A CLI ``repro checkout`` records into the same ``workload.log`` (or
``sqlite://`` catalog) as a ``repro serve`` running beside it.  These tests
start two real processes that record at the same time, many times over the
file's compaction threshold, and check the merged totals exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.storage.catalog import MetadataCatalog
from repro.storage.workload_log import WorkloadLog

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RECORDS = 3000
IDS = 200

# argv: store (a path or sqlite://PATH), work dir, tag.  Records RECORDS
# accesses cycling over IDS ids; 7 is coprime to IDS, so each process
# records every id exactly RECORDS / IDS times.
RECORDER = f"""
import os, sys, time
from repro.storage.catalog import MetadataCatalog
from repro.storage.workload_log import WorkloadLog

store, workdir, tag = sys.argv[1], sys.argv[2], int(sys.argv[3])
if store.startswith("sqlite://"):
    store = MetadataCatalog(store[len("sqlite://"):])
log = WorkloadLog(store)
open(os.path.join(workdir, f"ready{{tag}}"), "w").close()
while not os.path.exists(os.path.join(workdir, "go")):
    time.sleep(0.001)
for i in range({RECORDS}):
    log.record(f"v{{(7 * i + tag) % {IDS}}}")
"""


def record_from_two_processes(store: str, workdir: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", RECORDER, store, workdir, str(tag)],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for tag in (0, 1)
    ]
    try:
        deadline = time.time() + 60
        while not all(
            os.path.exists(os.path.join(workdir, f"ready{tag}")) for tag in (0, 1)
        ):
            assert time.time() < deadline, "recorders never became ready"
            assert all(p.poll() is None for p in processes), "a recorder died"
            time.sleep(0.01)
        # Both start recording at once, so their appends interleave.
        open(os.path.join(workdir, "go"), "w").close()
        for process in processes:
            _, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
    finally:
        for process in processes:
            if process.poll() is None:  # pragma: no cover - failure cleanup
                process.kill()


def expected_counts() -> dict[str, int]:
    return {f"v{i}": 2 * RECORDS // IDS for i in range(IDS)}


def test_two_processes_lose_no_access_in_one_file(tmp_path):
    path = str(tmp_path / "workload.log")
    record_from_two_processes(path, str(tmp_path))
    log = WorkloadLog(path)
    assert log.total_accesses == 2 * RECORDS
    assert log.counts() == expected_counts()


def test_two_processes_lose_no_access_in_one_catalog(tmp_path):
    path = str(tmp_path / "catalog.db")
    MetadataCatalog(path)  # create the schema before the recorders open it
    record_from_two_processes(f"sqlite://{path}", str(tmp_path))
    log = WorkloadLog(MetadataCatalog(path))
    assert log.total_accesses == 2 * RECORDS
    assert log.counts() == expected_counts()


def test_a_read_sees_records_made_through_another_live_handle(tmp_path):
    path = str(tmp_path / "workload.log")
    first, second = WorkloadLog(path), WorkloadLog(path)
    first.record("a", count=2)
    second.record("b")
    assert first.counts() == {"a": 2, "b": 1}
    assert second.total_accesses == 3
    # Enough appends for the second handle to compact the file under the
    # first: the first notices the new file and folds it from the start.
    for _ in range(300):
        second.record("b")
    assert first.counts() == {"a": 2, "b": 301}
    first.record("a")
    assert second.counts() == {"a": 3, "b": 301}
    assert first.decayed_counts() == pytest.approx(second.decayed_counts())
    second.clear()
    assert first.counts() == {}
    first.record("c")
    assert second.counts() == {"c": 1}
