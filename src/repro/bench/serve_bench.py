"""Benchmark drivers for the serving layer.

Three experiments:

* :func:`warm_pricing_benchmark` — the warm cost model's accuracy: for a
  Zipf request stream, each request's
  :meth:`~repro.storage.batch.BatchMaterializer.warm_chain_cost` is
  predicted immediately before serving it and the totals are compared to
  the deltas/cost the service actually paid (and to the cold Φ pricing,
  which overstates warm serving by orders of magnitude).

* :func:`serve_warm_vs_cold` — ``repro serve`` keeps one
  :class:`~repro.storage.batch.BatchMaterializer` cache alive across
  requests, so a popular version's delta chain is replayed once and then
  answered from memory.  A Zipf-skewed stream of checkout requests
  (real-world access frequencies follow such distributions, per the
  paper's workload-aware evaluation) is served twice through one
  :class:`~repro.server.service.VersionStoreService` — first against a
  cold cache, then replayed against the now-warm cache — and the
  per-request latency and delta applications of the two passes are
  compared.
* :func:`concurrent_serving_benchmark` — the per-chain concurrency
  experiment: N client threads hammer N *independent* delta chains through
  one service, once with the old single-lock configuration
  (``lock_stripes=1, max_workers=1``) and once with striped per-chain
  locks and a worker pool.  The store sits behind
  :class:`SimulatedLatencyBackend`, which charges a fixed per-fetch
  latency — modelling the disk/remote stores where recreation time is
  I/O-bound, which is where lock striping pays (pure in-memory CPU replay
  is GIL-serialized in CPython either way; both raw configurations are
  reported).  Byte parity against direct repository checkouts is verified
  for every served payload.

Both drivers run in-process (no HTTP) so the numbers isolate the
materialization layer rather than socket overhead.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator, Mapping, Sequence

from ..core.version_graph import VersionGraph
from ..datagen.workload import sample_accesses, zipfian_workload
from ..server.service import VersionStoreService
from ..storage.backends import MemoryBackend, StorageBackend
from ..storage.repository import Repository
from .batch_bench import batch_benchmark_scenarios, build_repository_from_graph

__all__ = [
    "zipf_request_stream",
    "serve_warm_vs_cold",
    "warm_pricing_benchmark",
    "tiered_cache_benchmark",
    "SimulatedLatencyBackend",
    "build_independent_chains",
    "concurrent_serving_benchmark",
]


def zipf_request_stream(
    version_ids: Sequence,
    num_requests: int,
    *,
    exponent: float = 2.0,
    seed: int = 0,
) -> list:
    """A concrete checkout-request trace with Zipf-distributed popularity."""
    workload = zipfian_workload(version_ids, exponent=exponent, seed=seed)
    return sample_accesses(workload, num_requests, seed=seed + 1)


def _serve_pass(
    service: VersionStoreService, stream: Sequence
) -> tuple[float, float, int]:
    """Serve every request; returns (total_s, max_request_s, deltas_applied)."""
    deltas_before = service.stats_counters.deltas_applied
    slowest = 0.0
    started = time.perf_counter()
    for version_id in stream:
        request_started = time.perf_counter()
        service.checkout(version_id)
        slowest = max(slowest, time.perf_counter() - request_started)
    total = time.perf_counter() - started
    return total, slowest, service.stats_counters.deltas_applied - deltas_before


def serve_warm_vs_cold(
    graphs: Mapping[str, VersionGraph] | None = None,
    *,
    num_requests: int = 300,
    exponent: float = 2.0,
    cache_size: int = 256,
    seed: int = 0,
) -> list[dict[str, float | str]]:
    """Serve one Zipf stream cold, then replay it warm, per scenario.

    Returns one row per scenario: delta applications and latency of the
    cold pass (cache starts empty, warming as it goes) and of the warm
    replay, plus the naive count a cache-less sequential server would have
    paid for the whole double stream.  Payloads of the warm pass are
    byte-identical to direct repository checkouts by construction (the
    service returns the cached payload object itself); correctness is
    asserted separately by the test suite, latency is measured here.
    """
    if graphs is None:
        graphs = batch_benchmark_scenarios(seed=seed)

    rows: list[dict[str, float | str]] = []
    for name, graph in graphs.items():
        repo = build_repository_from_graph(graph, seed=seed)
        service = VersionStoreService(repo, cache_size=cache_size)
        stream = zipf_request_stream(
            repo.graph.version_ids, num_requests, exponent=exponent, seed=seed
        )

        service.materializer.clear_cache()
        cold_seconds, cold_slowest, cold_deltas = _serve_pass(service, stream)
        warm_seconds, warm_slowest, warm_deltas = _serve_pass(service, stream)

        naive = service.stats_counters.naive_delta_applications
        rows.append(
            {
                "scenario": name,
                "num_versions": float(len(repo)),
                "num_requests": float(num_requests),
                "cold_deltas": float(cold_deltas),
                "warm_deltas": float(warm_deltas),
                "naive_deltas": float(naive),
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "cold_slowest_ms": 1000 * cold_slowest,
                "warm_slowest_ms": 1000 * warm_slowest,
                "mean_cold_ms": 1000 * cold_seconds / num_requests,
                "mean_warm_ms": 1000 * warm_seconds / num_requests,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# warm-vs-cold pricing: the warm cost model against measured serving work
# --------------------------------------------------------------------- #
def warm_pricing_benchmark(
    graphs: Mapping[str, VersionGraph] | None = None,
    *,
    num_requests: int = 300,
    exponent: float = 2.0,
    cache_size: int = 16,
    seed: int = 0,
) -> list[dict[str, float | str]]:
    """How well the warm cost model predicts what serving actually pays.

    For every request of a Zipf stream the model's
    :meth:`~repro.storage.batch.BatchMaterializer.warm_chain_cost` is
    snapshot *immediately before* the request is served (the cache mutates
    with every request, so each prediction is judged against exactly the
    state it priced), then the served response's ``deltas_applied`` and
    ``recreation_cost`` are accumulated next to the predictions.  The cache
    is deliberately small relative to the version count so the stream
    keeps mixing warm and cold chains — the regime where cold pricing is
    furthest off.  Returns one row per scenario with predicted vs measured
    totals and their relative error (the acceptance bar: within 15%), plus
    the cold model's prediction for the same stream as the baseline the
    warm model improves on.
    """
    if graphs is None:
        graphs = batch_benchmark_scenarios(seed=seed)

    rows: list[dict[str, float | str]] = []
    for name, graph in graphs.items():
        repo = build_repository_from_graph(graph, seed=seed)
        service = VersionStoreService(repo, cache_size=cache_size)
        stream = zipf_request_stream(
            repo.graph.version_ids, num_requests, exponent=exponent, seed=seed
        )

        predicted_deltas = 0
        predicted_cost = 0.0
        cold_deltas = 0
        measured_deltas = 0
        measured_cost = 0.0
        for version_id in stream:
            object_id = repo.object_id_of(version_id)
            warm = service.materializer.warm_chain_cost(object_id)
            predicted_deltas += warm.deltas
            predicted_cost += warm.phi
            cold_deltas += repo.store.chain_stats(object_id).num_deltas
            response = service.checkout(version_id)
            measured_deltas += response.deltas_applied
            measured_cost += response.recreation_cost
        service.close()

        delta_error = (
            abs(predicted_deltas - measured_deltas) / measured_deltas
            if measured_deltas
            else 0.0
        )
        cost_error = (
            abs(predicted_cost - measured_cost) / measured_cost
            if measured_cost
            else 0.0
        )
        rows.append(
            {
                "scenario": name,
                "num_versions": float(len(repo)),
                "num_requests": float(num_requests),
                "predicted_deltas": float(predicted_deltas),
                "measured_deltas": float(measured_deltas),
                "cold_predicted_deltas": float(cold_deltas),
                "predicted_cost": predicted_cost,
                "measured_cost": measured_cost,
                "delta_rel_error": delta_error,
                "cost_rel_error": cost_error,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# two-tier cache: memory LRU over a compressed disk spill tier
# --------------------------------------------------------------------- #
def tiered_cache_benchmark(
    graphs: Mapping[str, VersionGraph] | None = None,
    *,
    num_requests: int = 300,
    exponent: float = 1.2,
    cache_size: int = 8,
    tier_bytes: int = 64 * 1024 * 1024,
    seed: int = 0,
) -> list[dict[str, float | str]]:
    """Warm serving with the memory-only cache vs the two-tier cache.

    The stream is Zipf-skewed but flat enough (low exponent) that its
    working set dwarfs the deliberately tiny memory tier — the regime the
    disk tier exists for.  Each scenario serves the identical stream twice
    per configuration (cold pass to warm the caches, then the measured
    warm replay) and compares the warm replay's delta applications and
    cache hit rate.  The improvement is *asserted*, not just reported:
    with a spill tier large enough to retain what the memory tier evicts,
    the warm replay must hit more and replay fewer deltas than the
    memory-only configuration ever can.
    """
    import shutil
    import tempfile

    if graphs is None:
        graphs = batch_benchmark_scenarios(seed=seed)

    rows: list[dict[str, float | str]] = []
    for name, graph in graphs.items():
        repo = build_repository_from_graph(graph, seed=seed)
        stream = zipf_request_stream(
            repo.graph.version_ids, num_requests, exponent=exponent, seed=seed
        )

        def warm_replay(service: VersionStoreService) -> tuple[int, float]:
            _serve_pass(service, stream)  # cold pass warms the tiers
            cache = service.materializer.cache
            disk = getattr(cache, "disk", None)
            hits_before, misses_before = cache.hits, cache.misses
            disk_hits_before = disk.hits if disk is not None else 0
            _, _, deltas = _serve_pass(service, stream)
            # Every lookup probes the memory tier first, so its probe count
            # is the request-side denominator; a disk hit is a warm answer
            # the memory tier alone would have missed.
            probes = (cache.hits - hits_before) + (cache.misses - misses_before)
            warm_hits = cache.hits - hits_before
            if disk is not None:
                warm_hits += disk.hits - disk_hits_before
            hit_rate = warm_hits / probes if probes else 0.0
            return deltas, hit_rate

        single = VersionStoreService(repo, cache_size=cache_size)
        single_deltas, single_hit_rate = warm_replay(single)
        single.close()

        tier_dir = tempfile.mkdtemp(prefix="repro-bench-tier-")
        try:
            tiered = VersionStoreService(
                repo,
                cache_size=cache_size,
                cache_tier_dir=tier_dir,
                cache_tier_bytes=tier_bytes,
            )
            tiered_deltas, tiered_hit_rate = warm_replay(tiered)
            disk = tiered.materializer.cache.disk
            disk_hits, spills = disk.hits, disk.spills
            tiered.close()
        finally:
            shutil.rmtree(tier_dir, ignore_errors=True)

        if tiered_hit_rate <= single_hit_rate or tiered_deltas >= single_deltas:
            raise AssertionError(
                f"{name}: two-tier cache did not improve warm serving "
                f"(hit rate {single_hit_rate:.3f} -> {tiered_hit_rate:.3f}, "
                f"deltas {single_deltas} -> {tiered_deltas})"
            )
        rows.append(
            {
                "scenario": name,
                "num_versions": float(len(repo)),
                "num_requests": float(num_requests),
                "memory_entries": float(cache_size),
                "single_warm_deltas": float(single_deltas),
                "tiered_warm_deltas": float(tiered_deltas),
                "single_hit_rate": single_hit_rate,
                "tiered_hit_rate": tiered_hit_rate,
                "disk_hits": float(disk_hits),
                "disk_spills": float(spills),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# per-chain concurrency benchmark
# --------------------------------------------------------------------- #
class SimulatedLatencyBackend(StorageBackend):
    """A backend wrapper charging a fixed latency per object fetch.

    Models the stores where recreation is I/O-bound — objects on disk, a
    zip archive, or a remote peer one round trip away — without the noise
    of real devices: every ``get`` sleeps ``delay`` seconds before
    delegating, and ``get_many`` sleeps once for the whole batch (a batched
    round trip).  Sleeps release the GIL exactly like real I/O does, so
    the benchmark measures what lock striping actually buys on such
    stores.
    """

    scheme = "latency"

    def __init__(self, child: StorageBackend, delay: float) -> None:
        self.child = child
        self.delay = float(delay)
        self.fetches = 0
        self._count_lock = threading.Lock()

    def put(self, key: str, value: Any) -> None:
        self.child.put(key, value)

    def get(self, key: str) -> Any:
        with self._count_lock:
            self.fetches += 1
        time.sleep(self.delay)
        return self.child.get(key)

    def get_many(self, keys: Sequence[str]) -> dict[str, Any]:
        with self._count_lock:
            self.fetches += 1
        time.sleep(self.delay)
        return self.child.get_many(keys)

    def delete(self, key: str) -> None:
        self.child.delete(key)

    def keys(self) -> Iterator[str]:
        return self.child.keys()

    def __contains__(self, key: str) -> bool:
        return key in self.child

    def __len__(self) -> int:
        return len(self.child)

    def spec(self) -> str:
        return f"{self.scheme}+{self.child.spec()}"


def build_independent_chains(
    *,
    num_chains: int = 4,
    chain_length: int = 12,
    num_rows: int = 60,
    seed: int = 0,
    backend: StorageBackend | str | None = None,
) -> tuple[Repository, dict[int, list]]:
    """A repository holding ``num_chains`` independent delta chains.

    Each chain's first version carries entirely different content, so the
    parent delta is larger than the payload and the version is stored
    *full* — starting a fresh object chain whose root strides a different
    lock stripe.  Subsequent versions append/edit a little and are stored
    as deltas on that chain.  Returns the repository plus the version ids
    of every chain.
    """
    repo = Repository(cache_size=0, backend=backend)
    chains: dict[int, list] = {}
    for chain in range(num_chains):
        payload = [
            f"chain-{chain},row-{row},{(seed + chain * 31 + row) % 97}"
            for row in range(num_rows)
        ]
        vids = [repo.commit(payload, message=f"chain {chain} base")]
        for step in range(1, chain_length):
            payload = list(payload)
            payload[(step * 7) % len(payload)] = f"chain-{chain},edited,{step}"
            payload.append(f"chain-{chain},appended,{step}")
            vids.append(
                repo.commit(payload, parents=[vids[-1]], message=f"c{chain} s{step}")
            )
        chains[chain] = vids
    return repo, chains


def concurrent_serving_benchmark(
    *,
    num_chains: int = 4,
    chain_length: int = 12,
    requests_per_chain: int = 6,
    workers: int = 4,
    storage_latency: float = 0.002,
    seed: int = 0,
) -> list[dict[str, float | str | bool]]:
    """Concurrent checkout throughput: single lock vs per-chain striping.

    ``num_chains`` client threads each hammer the tip region of their own
    independent chain (``requests_per_chain`` cold checkouts, cache
    disabled so every request replays its whole chain through the
    latency-charged store).  Two service configurations serve the identical
    request schedule over byte-identical repositories:

    * ``single-lock`` — ``lock_stripes=1, max_workers=1``: the pre-refactor
      server, every materialization serialized;
    * ``striped`` — per-chain striped locks plus a ``workers``-wide pool.

    Returns one row per configuration (wall seconds, requests/s, fetches,
    byte parity against direct repository checkouts) plus a ``speedup``
    summary row.
    """
    configs = [
        ("single-lock", 1, 1),
        (f"striped-{workers}w", 64, workers),
    ]
    rows: list[dict[str, float | str | bool]] = []
    for label, stripes, max_workers in configs:
        backend = SimulatedLatencyBackend(MemoryBackend(), storage_latency)
        repo, chains = build_independent_chains(
            num_chains=num_chains,
            chain_length=chain_length,
            seed=seed,
            backend=backend,
        )
        expected = {
            vid: repo.checkout(vid, record_stats=False).payload
            for vids in chains.values()
            for vid in vids
        }
        service = VersionStoreService(
            repo,
            cache_size=0,  # every request replays: isolates lock concurrency
            max_workers=max_workers,
            lock_stripes=stripes,
        )
        # Warm the cost index (chain roots) outside the measured window so
        # both configurations start from the same state.
        for vids in chains.values():
            repo.store.chain_root(repo.object_id_of(vids[-1]))

        mismatches: list = []
        errors: list = []
        barrier = threading.Barrier(num_chains + 1)
        # Setup (parity payloads, index warm-up) went through the same
        # backend; count only the measured serving phase's fetches.
        fetches_before = backend.fetches

        def client(chain: int) -> None:
            vids = chains[chain]
            barrier.wait()
            try:
                for request in range(requests_per_chain):
                    vid = vids[-1 - (request % 3)]
                    response = service.checkout(vid)
                    if response.payload != expected[vid]:
                        mismatches.append((chain, vid))
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(chain,)) for chain in chains
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        service.close()

        num_requests = num_chains * requests_per_chain
        rows.append(
            {
                "config": label,
                "num_chains": float(num_chains),
                "num_requests": float(num_requests),
                "seconds": elapsed,
                "requests_per_s": num_requests / elapsed if elapsed > 0 else 0.0,
                "storage_fetches": float(backend.fetches - fetches_before),
                "byte_identical": not mismatches and not errors,
                # Surfaced verbatim so an acceptance failure names the
                # actual defect instead of just a parity/speedup miss.
                "errors": "; ".join(repr(error) for error in errors),
            }
        )
    baseline, striped = rows[0], rows[1]
    rows.append(
        {
            "config": "speedup",
            "num_chains": float(num_chains),
            "num_requests": baseline["num_requests"],
            "seconds": 0.0,
            "requests_per_s": 0.0,
            "storage_fetches": 0.0,
            "byte_identical": bool(
                baseline["byte_identical"] and striped["byte_identical"]
            ),
            "errors": "",
            "speedup": float(baseline["seconds"]) / max(1e-9, float(striped["seconds"])),
        }
    )
    return rows


# --------------------------------------------------------------------- #
# CLI entry point: the fast benches -> BENCH_serve.json (CI artifact)
# --------------------------------------------------------------------- #
def main(argv: Sequence[str] | None = None) -> int:
    """Run the fast serving benchmarks and emit a ``BENCH_serve.json``.

    ``python -m repro.bench.serve_bench --output BENCH_serve.json`` — the
    CI benchmark step runs exactly this and uploads the file, so the
    serving numbers accumulate a trajectory across PRs.
    """
    import argparse

    from .results import write_bench_json

    parser = argparse.ArgumentParser(
        description="serving benchmarks -> BENCH_serve.json"
    )
    parser.add_argument("--output", default="BENCH_serve.json")
    parser.add_argument(
        "--timestamp",
        default=None,
        help="stamp recorded in the document (CI passes the commit SHA)",
    )
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--cache-size", type=int, default=64)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    graphs = batch_benchmark_scenarios(scale=args.scale, seed=args.seed)
    params = {
        "num_requests": args.requests,
        "cache_size": args.cache_size,
        "scale": args.scale,
        "seed": args.seed,
    }
    metrics = {
        "serve_warm_vs_cold": serve_warm_vs_cold(
            graphs,
            num_requests=args.requests,
            cache_size=args.cache_size,
            seed=args.seed,
        ),
        "warm_pricing": warm_pricing_benchmark(
            graphs, num_requests=args.requests, seed=args.seed
        ),
        "tiered_cache": tiered_cache_benchmark(
            graphs, num_requests=args.requests, seed=args.seed
        ),
        "concurrent_serving": concurrent_serving_benchmark(seed=args.seed),
    }
    write_bench_json(args.output, "serve", params, metrics, args.timestamp)
    print(f"wrote {args.output} ({len(metrics)} benchmark groups)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
