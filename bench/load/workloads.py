"""The four workloads: which store each builds and which traffic it sends.

Each workload exists to load a different set of layers, so that a change to
one layer moves one workload's numbers and leaves another's alone (the
README's tables say which).  All sizes here are workload constants: the seed
chooses row contents, edit positions and the request order, never a size.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from datasets import Dataset, Shape, edit_window, logical_bytes, payload_bytes, payload_digest
from loadgen import Request

if TYPE_CHECKING:
    from run import Run

CLIENTS = 2  # one per core of the reference machine, never more
ZIPF_EXPONENT = 1.1
HOT_SET = 100  # zipf_hot: versions requested at all (cache holds 256)
BATCH_SIZE = 16  # batch_forkfan: versions per checkout_many
BATCH_WINDOW = 64  # ... sampled from this many consecutive commits
BRANCH_HEADS = 8  # commit_repack_mix: heads the writer extends
COMMIT_EDIT_ROWS = 20
# The writer commits at this rate at most (about half of what the seed commit
# sustains) and reads otherwise, so the bytes committed — and with them
# storage_ratio and the plan the repack solves — do not depend on how fast
# the server happens to be.
COMMITS_PER_SECOND = 5.0
BASELINE_SHARE = 0.3  # traced runs: share of --seconds spent before tracing starts
MIX_PHASE_SHARE = 0.4  # commit_repack_mix: share of --seconds before, and after, the repack


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    quick_shape: Shape  # --quick: seconds, not minutes, for the smoke test
    flags: tuple[str, ...]  # extra ``repro serve`` flags
    drive: Callable[["Run"], None]
    keep_heads: int = 0  # newest branch heads whose payloads ``drive`` needs


# --------------------------------------------------------------------- #
# request sources
# --------------------------------------------------------------------- #
def zipf_cumulative(count: int) -> list[float]:
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, count + 1)]
    return list(itertools.accumulate(weights))


def zipf_pick(rng: random.Random, cumulative: list[float]) -> int:
    """A 0-based rank, rank 0 being the most popular."""
    return bisect.bisect_left(cumulative, rng.random() * cumulative[-1])


def checkout_request(dataset: Dataset, version: str) -> Request:
    return Request(
        "checkout",
        "GET",
        f"/checkout/{version}",
        check=lambda reply: payload_digest(reply["payload"]) == dataset.digests[version],
    )


def batch_request(dataset: Dataset, versions: list[str]) -> Request:
    def check(reply: dict) -> bool:
        items = reply["items"]
        return all(
            payload_digest(items[version]["payload"]) == dataset.digests[version]
            for version in versions
        )

    return Request("batch", "POST", "/checkout_many", {"versions": versions}, check)


def sweep(run: "Run", versions: list[str]) -> None:
    """Read every one of ``versions`` once, in batches, half per client."""
    batches = [
        batch_request(run.dataset, versions[start: start + BATCH_SIZE])
        for start in range(0, len(versions), BATCH_SIZE)
    ]
    run.phase("sweep", [batches[client::CLIENTS] for client in range(CLIENTS)])


def measure_reads(run: "Run", sources: list[Iterator[Request]]) -> None:
    """Warm up, then the measured window — split in two when tracing."""
    run.phase("warmup", sources, seconds=run.warmup_s)
    if run.trace:
        run.phase("baseline", sources, seconds=BASELINE_SHARE * run.seconds)
        run.start_tracing()
        run.phase("measured", sources, seconds=(1 - BASELINE_SHARE) * run.seconds)
        run.snapshot("end")
    else:
        run.phase("measured", sources, seconds=run.seconds)


# --------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------- #
def drive_zipf_hot(run: "Run") -> None:
    dataset = run.dataset
    hot = run.rng.sample(dataset.versions, min(HOT_SET, len(dataset.versions) // 2))
    # Touch the whole hot set once so the measured window sees the warm
    # cache the workload is about, whichever versions Zipf favours.
    run.phase(
        "warmup",
        [[checkout_request(dataset, v) for v in hot[c::CLIENTS]] for c in range(CLIENTS)],
    )
    cumulative = zipf_cumulative(len(hot))

    def source(client: int) -> Iterator[Request]:
        rng = run.client_rngs[client]
        while True:
            yield checkout_request(dataset, hot[zipf_pick(rng, cumulative)])

    measure_reads(run, [source(client) for client in range(CLIENTS)])


def drive_deep_cold(run: "Run") -> None:
    dataset = run.dataset

    def source(client: int) -> Iterator[Request]:
        rng = run.client_rngs[client]
        while True:
            yield checkout_request(dataset, rng.choice(dataset.versions))

    measure_reads(run, [source(client) for client in range(CLIENTS)])


def drive_batch_forkfan(run: "Run") -> None:
    dataset = run.dataset
    window = min(BATCH_WINDOW, len(dataset.versions))
    size = min(BATCH_SIZE, window)

    def source(client: int) -> Iterator[Request]:
        rng = run.client_rngs[client]
        while True:
            start = rng.randrange(len(dataset.versions) - window + 1)
            picks = rng.sample(range(start, start + window), size)
            yield batch_request(dataset, [dataset.versions[index] for index in picks])

    measure_reads(run, [source(client) for client in range(CLIENTS)])


def drive_commit_repack_mix(run: "Run") -> None:
    dataset = run.dataset
    versions = list(dataset.versions)  # grows with every commit; newest last
    heads = [[version, payload] for version, payload in dataset.payloads.items()]
    cumulative = zipf_cumulative(len(versions))
    stamps = itertools.count(len(versions))
    allowance = [0]  # commits the writer may still make in the current phase

    def reader(client: int) -> Iterator[Request]:
        rng = run.client_rngs[client]
        while True:  # Zipf by recency: rank 0 is the newest version
            yield checkout_request(dataset, versions[-1 - zipf_pick(rng, cumulative)])

    def writer(client: int) -> Iterator[Request]:
        rng = run.client_rngs[client]
        while True:
            if allowance[0] <= 0:
                yield checkout_request(dataset, versions[-1 - zipf_pick(rng, cumulative)])
                continue
            allowance[0] -= 1
            head = rng.choice(heads)
            payload = edit_window(rng, head[1], COMMIT_EDIT_ROWS, next(stamps))
            acknowledged: list[str] = []

            def check(reply: dict, head=head, payload=payload, acknowledged=acknowledged) -> bool:
                version = reply["version"]
                dataset.digests[version] = payload_digest(payload)
                dataset.user_bytes += payload_bytes(payload)
                dataset.logical_bytes += logical_bytes(payload)
                head[0], head[1] = version, payload
                versions.append(version)
                acknowledged.append(version)
                return True

            yield Request(
                "commit",
                "POST",
                "/commit",
                {"payload": payload, "parents": [head[0]], "message": "bench"},
                check,
            )
            if acknowledged:  # every acknowledged commit is read back
                yield checkout_request(dataset, acknowledged[0])

    def repack_applied(reply: dict) -> bool:
        run.repack_report = reply
        return reply.get("applied") is True

    traffic = [reader(0), writer(1)]

    def mixed_phase(label: str, seconds: float) -> None:
        allowance[0] = int(COMMITS_PER_SECOND * seconds)
        run.phase(label, traffic, seconds=seconds)

    mixed_phase("warmup", run.warmup_s)
    if run.trace:
        mixed_phase("baseline", BASELINE_SHARE * run.seconds)
        run.start_tracing()
    mixed_phase("measured", MIX_PHASE_SHARE * run.seconds)
    run.snapshot("before_repack")
    # The repack is one synchronous request of the writer's; the reader keeps
    # reading until it returns, which is the foreground stall it causes.
    repack = Request("repack", "POST", "/repack", {"workload": True}, repack_applied)
    run.phase("measured_repack", [traffic[0], [repack]], stop_when_dry=True)
    run.snapshot("after_repack")
    mixed_phase("measured", MIX_PHASE_SHARE * run.seconds)
    run.snapshot("end")
    run.control("POST", "/prune")
    sweep(run, versions)  # byte-identical across commit, repack and prune


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "zipf_hot",
            Shape(trunk=180, rows=2000, backend="file://objects", fork_every=3, fork_len=2),
            Shape(trunk=12, rows=100, backend="file://objects", fork_every=3, fork_len=2),
            ("--cache-size", "256"),
            drive_zipf_hot,
        ),
        Workload(
            "deep_cold",
            Shape(trunk=380, rows=200, backend="file://objects", fork_every=40, fork_len=2),
            Shape(trunk=40, rows=40, backend="file://objects", fork_every=10, fork_len=2),
            ("--cache-size", "64"),
            drive_deep_cold,
        ),
        Workload(
            "batch_forkfan",
            Shape(trunk=160, rows=200, backend="file://objects", fork_every=1, forks=3),
            Shape(trunk=20, rows=40, backend="file://objects", fork_every=1, forks=3),
            ("--cache-size", "64"),
            drive_batch_forkfan,
        ),
        Workload(
            "commit_repack_mix",
            Shape(trunk=110, rows=500, backend="sqlite://catalog.db", fork_every=5, fork_len=2),
            Shape(trunk=15, rows=60, backend="sqlite://catalog.db", fork_every=3, fork_len=2),
            (),
            drive_commit_repack_mix,
            keep_heads=BRANCH_HEADS,
        ),
    )
}
