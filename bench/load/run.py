#!/usr/bin/env python3
"""Socket-level load benchmark for ``repro serve``.

One measured run (what the regression driver calls)::

    python3 bench/load/run.py --workload deep_cold --seed 3 --seconds 20 --trace 0

builds the workload's store through the public ``Repository`` API, starts a
real ``python -m repro serve`` subprocess, drives it over loopback HTTP/1.1
keep-alive from two closed-loop client threads, checks every response against
the builder's digests, and prints each metric by name with its unit; the last
line of standard output is the result as one JSON object.  ``--trace 1`` runs
the traced twin of the server instead and reports the per-layer metrics.

Without ``--workload`` it runs every workload, untraced and traced, and
writes ``bench/load/out/BENCH_load.json`` for ``compare.py``::

    python3 bench/load/run.py --seed 0 [--repeat 3] [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 3  # set-ups per run; setup_s is their median
WARMUP_S = 1.5
SLICES = 10  # the measured window is cut in this many; see steady()
READ_KINDS = ("checkout", "batch")
ACCESS_LOG = "workload.log"

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"error: {SRC} does not hold the repro package; run from a full checkout")
sys.path.insert(0, SRC)

import datasets  # noqa: E402
import layers  # noqa: E402
from loadgen import Client, Sample, Server, run_phase  # noqa: E402
from workloads import CLIENTS, WORKLOADS, Workload  # noqa: E402


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def steady(values: list[float]) -> float:
    """Mean of the values left after dropping the top and bottom fifth.

    Robust like a median against the odd disturbed slice, and it uses more of
    the slices than one.
    """
    ordered = sorted(values)
    trim = len(ordered) // 5
    kept = ordered[trim: len(ordered) - trim]
    return sum(kept) / len(kept)


def directory_bytes(path: str) -> int:
    """Bytes the stopped store occupies, SQLite files compacted first.

    The file-backed access log is left out: its size follows how many
    requests the run happened to serve and when the log last compacted
    itself, not how the versions are stored.

    A catalog's write-ahead log keeps its high-water size and freed pages
    stay in the file, both by amounts that depend on when checkpoints
    happened to fire; vacuuming and folding the log in leaves the bytes the
    store's contents need, which is the figure that repeats.
    """
    files = [
        os.path.join(folder, name)
        for folder, _, names in os.walk(path)
        for name in names
        if name != ACCESS_LOG
    ]
    for database in (file for file in files if file.endswith(".db")):
        connection = sqlite3.connect(database)
        try:
            connection.execute("VACUUM")
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        finally:
            connection.close()
    return sum(os.path.getsize(file) for file in files if os.path.exists(file))


@dataclass(frozen=True)
class Phase:
    label: str  # labels starting "measured" are the timed window
    samples: list[Sample]
    started: float
    wall_s: float

    def latencies(self, kinds: tuple[str, ...]) -> list[float]:
        """Latencies of the verified-OK requests: a failed one has no figure."""
        return [s.latency_ms for s in self.samples if s.kind in kinds and s.ok]

    def slices(self, seconds: float) -> list["Phase"]:
        """The phase cut into equal parts of about ``seconds``, by finish time."""
        count = max(1, round(self.wall_s / seconds))
        width = self.wall_s / count
        parts: list[list[Sample]] = [[] for _ in range(count)]
        for sample in self.samples:
            parts[min(count - 1, int((sample.finished - self.started) / width))].append(sample)
        return [
            Phase(self.label, part, self.started + index * width, width)
            for index, part in enumerate(parts)
        ]


def split_cpus() -> tuple[set[int], set[int]]:
    """(server cores, load generator cores): disjoint when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return set(cpus[:-1]), {cpus[-1]}


SERVER_CPUS, LOADGEN_CPUS = split_cpus()  # read before main() pins this process


class Run:
    """One workload, one seed, one server: set-up, traffic, tear-down."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, trace: bool, quick: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.warmup_s = 0.2 if quick else WARMUP_S
        self.rng = random.Random(f"{workload.name}-{seed}")
        self.client_rngs = [
            random.Random(f"{workload.name}-{seed}-client-{index}")
            for index in range(CLIENTS)
        ]
        self.phases: list[Phase] = []
        self.snapshots: dict[str, dict] = {}
        self.repack_report: dict | None = None
        self.dataset: datasets.Dataset
        self.server: Server | None = None
        self.clients: list[Client] = []
        self._cpu_marks: dict[str, tuple[float, float]] = {}

    # -- what the workload scripts call -------------------------------- #
    def phase(self, label: str, sources, seconds: float | None = None, stop_when_dry: bool = False) -> None:
        """Run one traffic phase; labels starting ``measured`` are timed."""
        measured = label.startswith("measured")
        if measured:
            self._cpu_marks.setdefault("start", (time.process_time(), self.server.cpu_seconds()))
        samples, began, wall = run_phase(self.clients, sources, seconds, stop_when_dry)
        if measured:
            self._cpu_marks["end"] = (time.process_time(), self.server.cpu_seconds())
        self.phases.append(Phase(label, samples, began, wall))
        if self.server.process.poll() is not None:
            raise RuntimeError(f"the server exited during phase {label!r}")

    def control(self, method: str, path: str) -> dict:
        """A request outside the traffic (never traced, never timed)."""
        status, raw, _ = self.clients[0].call(method, path, {} if method == "POST" else None)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: {raw[:200]!r}")
        return json.loads(raw)

    def snapshot(self, label: str) -> None:
        """Keep ``GET /stats`` under ``label`` (traced runs only: it is slow)."""
        if self.trace:
            self.snapshots[label] = self.control("GET", "/stats")

    def start_tracing(self) -> None:
        self.server.enable_tracing()
        self.snapshot("trace_start")

    # -- the run --------------------------------------------------------- #
    def execute(self, work_dir: str) -> dict:
        shape = self.workload.quick_shape if self.quick else self.workload.shape
        keep = shape.heads(self.workload.keep_heads)
        trace_out = os.path.join(work_dir, "trace.json") if self.trace else None
        setups: list[float] = []
        started = time.perf_counter()
        try:
            for attempt in range(1 if self.quick else SETUPS):
                if attempt:  # only the last set-up is kept and driven
                    self.server.stop()
                repository = os.path.join(work_dir, f"store-{attempt}")
                begun = time.perf_counter()
                self.dataset = datasets.build(shape, repository, self.seed, keep)
                self.server = Server(
                    SRC, repository, list(self.workload.flags), trace_out, SERVER_CPUS
                )
                self.server.wait_ready()
                setups.append(time.perf_counter() - begun)
            self.clients = [
                Client(self.server.port, f"c{index}", self.seed) for index in range(CLIENTS)
            ]
            self.workload.drive(self)
            rss_mib = self.server.peak_rss_mib()
        finally:
            for client in self.clients:
                client.close()
            if self.server is not None:
                self.server.stop()
        metrics = self.client_metrics()
        metrics["setup_s"] = statistics.median(setups)
        metrics["server_rss_mb"] = rss_mib
        metrics["storage_ratio"] = directory_bytes(self.dataset.directory) / self.dataset.user_bytes
        metrics.update(self.dataset.stats)
        if self.trace:
            metrics.update(self.layer_metrics(trace_out, work_dir))
        samples = [sample for phase in self.phases for sample in phase.samples]
        failed = sum(not sample.ok for sample in samples)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "server_flags": list(self.workload.flags),
            "wall_s": time.perf_counter() - started,
            "correct": failed == 0 and self.server.process.returncode == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": metrics,
        }

    def latencies(self, label: str, kinds: tuple[str, ...]) -> list[float]:
        return [ms for phase in self.phases if phase.label == label for ms in phase.latencies(kinds)]

    def client_metrics(self) -> dict[str, float]:
        """What the clients saw.

        Throughput is a trimmed mean over the slices of the measured window,
        so a disturbance that lasts a second or two (the machine's, not the
        server's) moves one slice and not the result.  Latencies are order
        statistics of the whole window, which have that robustness built in
        and need all the samples they can get.
        """
        slices = [
            part
            for phase in self.phases
            if phase.label == "measured"
            for part in phase.slices(self.seconds / SLICES)
        ]
        everything = self.latencies("measured", READ_KINDS)
        metrics = {
            "throughput_rps": steady(
                [sum(sample.ok for sample in part.samples) / part.wall_s for part in slices]
            ),
            "checkout_p50_ms": statistics.median(everything),
            "checkout_p95_ms": percentile(everything, 0.95),
            "checkout_samples": float(len(everything)),
        }
        if len(everything) >= 1000:  # information only
            metrics["checkout_p99_ms"] = percentile(everything, 0.99)
        commits = self.latencies("measured", ("commit",))
        if commits:
            metrics["commit_p50_ms"] = statistics.median(commits)
            metrics["commit_p95_ms"] = percentile(commits, 0.95)
            metrics["commit_samples"] = float(len(commits))
        stalled = self.latencies("measured_repack", READ_KINDS)
        if stalled:
            metrics["checkout_during_repack_p50_ms"] = statistics.median(stalled)
            metrics["checkout_during_repack_samples"] = float(len(stalled))
        for repack_ms in self.latencies("measured_repack", ("repack",)):
            metrics["repack_s"] = repack_ms / 1000.0
        client_cpu = self._cpu_marks["end"][0] - self._cpu_marks["start"][0]
        server_cpu = self._cpu_marks["end"][1] - self._cpu_marks["start"][1]
        metrics["loadgen.client_cpu_share"] = client_cpu / (client_cpu + server_cpu)
        return metrics

    def layer_metrics(self, trace_path: str, work_dir: str) -> dict[str, float]:
        traced = [
            sample
            for phase in self.phases
            if phase.label.startswith("measured")
            for sample in phase.samples
        ]
        metrics = layers.budget(trace_path, traced)
        baseline = self.latencies("baseline", READ_KINDS)
        reads = self.latencies("measured", READ_KINDS)
        metrics["trace.overhead_ratio"] = statistics.median(reads) / statistics.median(baseline) - 1.0
        metrics.update(self.counter_metrics())
        metrics.update(layers.micro(work_dir, self.seed, self.quick))
        if not self.quick:  # keep the spans of the last traced run for inspection
            shutil.copyfile(trace_path, os.path.join(OUT, f"trace_{self.workload.name}.json"))
        return metrics

    def counter_metrics(self) -> dict[str, float]:
        """Ratios from the server's own ``/stats`` counters over the traced window."""

        def delta(first: str, last: str) -> dict[str, float]:
            a, b = self.snapshots[first]["serving"], self.snapshots[last]["serving"]
            moved = {key: b[key] - a[key] for key in ("checkout_requests", "coalesced_requests", "deltas_applied", "naive_delta_applications")}
            for key in ("hits", "misses", "cost_evictions", "lru_evictions"):
                moved[key] = b["cache"][key] - a["cache"][key]
            return moved

        def ratio(top: float, bottom: float) -> float:
            return top / bottom if bottom else 0.0

        whole = delta("trace_start", "end")
        repository = self.snapshots["end"]["repository"]
        metrics = {
            "service.coalesced_ratio": ratio(whole["coalesced_requests"], whole["checkout_requests"]),
            "batch.cache_hit_ratio": ratio(whole["hits"], whole["hits"] + whole["misses"]),
            "batch.cache_evictions": float(whole["cost_evictions"] + whole["lru_evictions"]),
            "batch.deltas_per_request": ratio(whole["deltas_applied"], whole["checkout_requests"]),
            "batch.amortization_ratio": ratio(whole["deltas_applied"], whole["naive_delta_applications"]),
            "objects.logical_storage_ratio": repository["storage_cost"] / self.dataset.logical_bytes,
        }
        if self.repack_report is not None:
            before = delta("trace_start", "before_repack")
            after = delta("after_repack", "end")
            report = self.repack_report
            metrics["repack.deltas_per_request_before"] = ratio(before["deltas_applied"], before["checkout_requests"])
            metrics["repack.deltas_per_request_after"] = ratio(after["deltas_applied"], after["checkout_requests"])
            metrics["repack.expected_cost_ratio"] = ratio(
                report["expected_cost_after"]["per_request"],
                report["expected_cost_before"]["per_request"],
            )
        return metrics


def run_once(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return Run(WORKLOADS[workload], seed, seconds, trace, quick).execute(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def unit_of(name: str, contract: dict) -> str:
    for metric in contract["end_to_end"] + contract["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    # Only sample counts, dataset sizes and the informational p99 are not
    # in the contract.
    return "ms" if name.endswith("_ms") else "count"


def print_metrics(result: dict, contract: dict) -> None:
    print(
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"attempted={result['attempted']} failed={result['failed']} wall={result['wall_s']:.1f}s"
    )
    for name, value in sorted(result["metrics"].items()):
        print(f"{name:46s} {value:14.4f} {unit_of(name, contract)}")


def result_line(result: dict, contract: dict) -> str:
    """The driver's contract: exactly the metrics BENCHMARK.json names."""
    wanted = contract["per_layer"] if result["trace"] else contract["end_to_end"]
    metrics = {
        metric["name"]: {"value": result["metrics"].get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in wanted
    }
    return json.dumps(
        {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    )


def hygiene(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the regression driver's checkout is not a git repository
    load = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
        "loadavg_1min": load,
        "noisy": load > (os.cpu_count() or 1),
        "server_cpus": sorted(SERVER_CPUS),
        "loadgen_cpus": sorted(LOADGEN_CPUS),
        "REPRO_METRICS": os.environ.get("REPRO_METRICS", "(default)"),
    }


def summarise(runs: list[dict], contract: dict) -> dict:
    """Median and quartiles per (workload, metric) over the untraced runs."""
    summary: dict[str, dict] = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for run in runs:
            if run["workload"] == workload and not run["trace"]:
                for name, value in run["metrics"].items():
                    values.setdefault(name, []).append(value)
        summary[workload] = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
            summary[workload][name] = {
                "median": statistics.median(series),
                "q1": q1,
                "q3": q3,
                "runs": len(series),
                "unit": unit_of(name, contract),
            }
    return summary


def run_all(args: argparse.Namespace, contract: dict) -> int:
    report = {"hygiene": hygiene(args.seed), "runs": []}
    for workload in WORKLOADS:
        for repeat in range(args.repeat):
            report["runs"].append(run_once(workload, args.seed + repeat, args.seconds, False, args.quick))
            print_metrics(report["runs"][-1], contract)
        report["runs"].append(run_once(workload, args.seed, args.seconds, True, args.quick))
        print_metrics(report["runs"][-1], contract)
    report["summary"] = summarise(report["runs"], contract)
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {args.output}")
    return 0 if all(run["correct"] for run in report["runs"]) else 1


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one measured run of this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--quick", action="store_true", help="tiny stores and sub-second windows (smoke test)")
    parser.add_argument("--output", default=os.path.join(OUT, "BENCH_load.json"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.6 if args.quick else float(contract["run_seconds"])
    # A terminated harness must still reap its server: unwind like ctrl-c.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.sched_setaffinity(0, LOADGEN_CPUS)
    if args.workload is None:
        return run_all(args, contract)
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print_metrics(result, contract)
    print(result_line(result, contract))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
