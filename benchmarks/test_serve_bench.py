"""In-process benchmarks for the serving layer.

Warm Zipf serving latency is measured through the socket by ``bench/load``
(``zipf_hot``); these two measure what the socket cannot see:

* warm-cost pricing accuracy: per-request `warm_chain_cost` predictions
  vs the deltas/cost the service actually pays on the same stream — the
  acceptance experiment for the warm cost model (±15%);
* concurrent checkout throughput over independent chains: the per-chain
  lock-striping refactor vs the old single-lock server, on a store whose
  fetches carry I/O latency — the acceptance experiment for the parallel
  materialization PR.
"""

from __future__ import annotations

from repro.bench.batch_bench import batch_benchmark_scenarios
from repro.bench.serve_bench import concurrent_serving_benchmark, warm_pricing_benchmark

from benchmarks.conftest import bench_scale, print_series_table


def test_warm_pricing_accuracy():
    graphs = batch_benchmark_scenarios(scale=max(1.0, 4 * bench_scale()), seed=7)
    rows = warm_pricing_benchmark(graphs, num_requests=300, cache_size=16, seed=7)

    print_series_table(
        "warm cost model: predicted vs measured serving work",
        [
            "scenario",
            "requests",
            "pred deltas",
            "meas deltas",
            "cold pred",
            "delta err",
            "cost err",
        ],
        [
            [
                row["scenario"],
                int(row["num_requests"]),
                int(row["predicted_deltas"]),
                int(row["measured_deltas"]),
                int(row["cold_predicted_deltas"]),
                f"{row['delta_rel_error']:.3f}",
                f"{row['cost_rel_error']:.3f}",
            ]
            for row in rows
        ],
    )

    for row in rows:
        # The PR's acceptance bar: warm prediction within ±15% of what the
        # benchmark Zipf workload actually paid (in practice it is exact).
        assert row["delta_rel_error"] <= 0.15, row
        assert row["cost_rel_error"] <= 0.15, row
        # Cold pricing misses warm serving by a wide margin — the gap the
        # warm model exists to close.
        assert row["cold_predicted_deltas"] >= 2 * row["measured_deltas"], row


def test_concurrent_checkouts_scale_with_stripes():
    """Acceptance: ≥4 independent chains served by 4 clients improve ≥2×
    with per-chain striped locks over the single-lock baseline,
    byte-identically, on an I/O-latency store (fetch sleeps release the GIL
    exactly like disk/remote reads do)."""
    rows = concurrent_serving_benchmark(
        num_chains=4,
        chain_length=12,
        requests_per_chain=6,
        storage_latency=0.003,
        seed=11,
    )

    print_series_table(
        "repro serve: concurrent checkouts, single lock vs chain striping",
        ["config", "chains", "requests", "seconds", "req/s", "fetches", "parity"],
        [
            [
                row["config"],
                int(row["num_chains"]),
                int(row["num_requests"]),
                f"{row['seconds']:.3f}",
                f"{row['requests_per_s']:.1f}",
                int(row["storage_fetches"]),
                str(bool(row["byte_identical"])),
            ]
            for row in rows
        ],
    )

    by_config = {row["config"]: row for row in rows}
    speedup = by_config["speedup"]["speedup"]
    print(f"speedup (striped vs single lock): {speedup:.2f}x")
    # No client thread crashed, and every payload served under either
    # configuration matched the direct repository checkout byte for byte.
    assert all(not row["errors"] for row in rows), [row["errors"] for row in rows]
    assert all(row["byte_identical"] for row in rows)
    # The acceptance bar: ≥2× concurrent throughput with 4 client threads.
    assert speedup >= 2.0, f"expected ≥2x, measured {speedup:.2f}x"
