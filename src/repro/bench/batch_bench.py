"""Benchmark driver: batch checkout vs. naive sequential checkout.

The optimization layer reasons about recreation cost one checkout at a
time; the batch engine (:mod:`repro.storage.batch`) amortizes shared
delta-chain prefixes across a whole batch of checkouts.  This driver
quantifies the gap on repositories whose histories mirror the LC/DC/BF
evaluation scenarios: every version is committed with real line payloads
following the scenario's version graph, every version is then checked out
(a) sequentially with no cache and (b) through the batch engine, and the
delta applications, recreation cost and wall-clock time of both are
reported.
"""

from __future__ import annotations

import random
import time
from typing import Mapping, Sequence

from ..core.version_graph import VersionGraph
from ..datagen.scenarios import bootstrap_forks, densely_connected, linear_chain
from ..delta.base import DeltaEncoder
from ..storage.batch import BatchMaterializer
from ..storage.repository import Repository

__all__ = [
    "build_repository_from_graph",
    "batch_vs_sequential",
    "batch_benchmark_scenarios",
]


def build_repository_from_graph(
    graph: VersionGraph,
    *,
    seed: int = 0,
    rows: int = 40,
    mutations: int = 3,
    encoder: DeltaEncoder | None = None,
    link_roots: bool | None = None,
) -> Repository:
    """Commit synthetic line payloads along ``graph``'s history.

    Each version's payload is its first parent's payload with a few mutated
    and appended lines, so the repository's natural encoding is a delta
    chain shaped exactly like the scenario's version graph.

    Fork datasets (BF/LF) have no VCS ancestry — every fork is a parentless
    near-duplicate.  With ``link_roots`` every root after the first is
    derived from, and committed as a child of, the previously ingested
    root, mirroring how a fork-archival system deltas incoming forks
    against the copies it already holds.  The default (``None``) links
    automatically when the graph has several roots; passing ``False`` for
    such a graph raises, because :meth:`Repository.commit` cannot create a
    second true root once history exists (an empty ``parents`` falls back
    to the branch head, which would silently rewire the topology).
    """
    roots = graph.roots()
    if link_roots is None:
        link_roots = len(roots) > 1
    elif not link_roots and len(roots) > 1:
        raise ValueError(
            f"graph has {len(roots)} roots; Repository.commit cannot create "
            "additional true roots — pass link_roots=True (or None) to chain "
            "them"
        )
    rng = random.Random(seed)
    repo = Repository(encoder=encoder)
    payloads: dict[object, list[str]] = {}

    def mutate(base: list[str], vid: object) -> list[str]:
        payload = list(base)
        for _ in range(mutations):
            index = rng.randrange(len(payload))
            payload[index] = f"{vid},edit,{rng.randrange(1000)}"
        payload.append(f"{vid},append,{rng.randrange(1000)}")
        return payload

    previous_root: object | None = None
    for vid in graph.topological_order():
        parents = list(graph.parents(vid))
        if not parents and link_roots and previous_root is not None:
            payload = mutate(payloads[previous_root], vid)
            parents = [previous_root]
            previous_root = vid
        elif not parents:
            payload = [f"{vid},{i},{rng.randrange(1000)}" for i in range(rows)]
            previous_root = vid
        else:
            payload = mutate(payloads[parents[0]], vid)
        payloads[vid] = payload
        repo.commit(payload, parents=tuple(parents), version_id=vid, message=str(vid))
    return repo


def batch_benchmark_scenarios(*, scale: float = 1.0, seed: int = 0) -> dict[str, VersionGraph]:
    """The LC/DC/BF version graphs at a laptop-friendly size."""
    lc = linear_chain(max(20, int(60 * scale)), seed=seed)
    dc = densely_connected(max(20, int(60 * scale)), seed=seed + 1)
    bf = bootstrap_forks(max(10, int(25 * scale)), seed=seed + 2)
    return {"LC": lc.graph, "DC": dc.graph, "BF": bf.graph}


def batch_vs_sequential(
    graphs: Mapping[str, VersionGraph] | None = None,
    *,
    cache_size: int = 64,
    seed: int = 0,
) -> list[dict[str, float | str]]:
    """Check out every version of each scenario both ways and compare.

    Returns one row per scenario with the delta applications, recreation
    cost and wall-clock time of naive sequential serving versus the batch
    engine, plus the resulting savings ratios.  Payload equality between the
    two paths is verified as part of the run.
    """
    if graphs is None:
        graphs = batch_benchmark_scenarios(seed=seed)

    rows: list[dict[str, float | str]] = []
    for name, graph in graphs.items():
        repo = build_repository_from_graph(graph, seed=seed)
        version_ids: Sequence = repo.graph.version_ids

        sequential = BatchMaterializer(repo.store, repo.encoder, cache_size=0)
        start = time.perf_counter()
        sequential_deltas = 0
        sequential_cost = 0.0
        sequential_payloads = {}
        for vid in version_ids:
            result = sequential.materialize(repo.object_id_of(vid))
            sequential_deltas += result.chain_length
            sequential_cost += result.recreation_cost
            sequential_payloads[vid] = result.payload
        sequential_time = time.perf_counter() - start

        batch = BatchMaterializer(repo.store, repo.encoder, cache_size=cache_size)
        start = time.perf_counter()
        batch_result = batch.materialize_many(
            [(vid, repo.object_id_of(vid)) for vid in version_ids]
        )
        batch_time = time.perf_counter() - start

        mismatches = sum(
            1
            for vid in version_ids
            if batch_result.items[vid].payload != sequential_payloads[vid]
        )
        summary = batch_result.summary()
        rows.append(
            {
                "scenario": name,
                "num_versions": float(len(version_ids)),
                "sequential_deltas": float(sequential_deltas),
                "batch_deltas": float(batch_result.deltas_applied),
                "delta_savings": (
                    1.0 - batch_result.deltas_applied / sequential_deltas
                    if sequential_deltas
                    else 0.0
                ),
                "sequential_cost": sequential_cost,
                "batch_cost": summary["recreation_cost_paid"],
                "sequential_seconds": sequential_time,
                "batch_seconds": batch_time,
                "payload_mismatches": float(mismatches),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# CLI entry point: the fast benches -> BENCH_batch.json (CI artifact)
# --------------------------------------------------------------------- #
def main(argv: "Sequence[str] | None" = None) -> int:
    """Run the batch-engine benchmarks and emit a ``BENCH_batch.json``.

    ``python -m repro.bench.batch_bench --output BENCH_batch.json`` — run
    by the CI benchmark step and uploaded as an artifact, mirroring
    :mod:`repro.bench.serve_bench`'s trajectory file.
    """
    import argparse

    from .results import write_bench_json

    parser = argparse.ArgumentParser(
        description="batch benchmarks -> BENCH_batch.json"
    )
    parser.add_argument("--output", default="BENCH_batch.json")
    parser.add_argument(
        "--timestamp",
        default=None,
        help="stamp recorded in the document (CI passes the commit SHA)",
    )
    parser.add_argument("--cache-size", type=int, default=64)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    graphs = batch_benchmark_scenarios(scale=args.scale, seed=args.seed)
    params = {
        "cache_size": args.cache_size,
        "scale": args.scale,
        "seed": args.seed,
    }
    metrics = {
        "batch_vs_sequential": batch_vs_sequential(
            graphs, cache_size=args.cache_size, seed=args.seed
        ),
    }
    write_bench_json(args.output, "batch", params, metrics, args.timestamp)
    print(f"wrote {args.output} ({len(metrics)} benchmark groups)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
