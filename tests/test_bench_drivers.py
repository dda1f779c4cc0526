"""The in-process benchmark drivers that remain, at tier-1 size.

End-to-end serving speed is measured through the socket by ``bench/load``
against the bounds in ``BENCHMARK.json``; the drivers under
``repro.bench`` keep only what that benchmark cannot see.  This file
checks the two whose correctness half is cheap enough for tier-1 —
exactly-once batch replay and byte parity under concurrent striped
serving — and that the deleted in-process trajectory pipeline (its JSON
writer, its regression gate, the ``python -m`` entry points) and the
second offline repack entry point stay deleted.
"""

from __future__ import annotations

import importlib

import pytest

from repro.bench import batch_bench, serve_bench
from repro.storage.repack import OnlineRepacker
from repro.storage.repository import Repository


@pytest.mark.parametrize(
    "package, name",
    [("repro.bench", "regression"), ("repro.bench", "results"), ("repro.storage", "planner")],
)
def test_removed_module_is_not_importable(package, name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"{package}.{name}")


@pytest.mark.parametrize(
    "module, name",
    [
        (serve_bench, "serve_warm_vs_cold"),
        (serve_bench, "tiered_cache_benchmark"),
        (serve_bench, "main"),
        (batch_bench, "main"),
    ],
)
def test_removed_driver_is_gone(module, name):
    assert not hasattr(module, name)


def test_online_repacker_takes_no_cache_size():
    with pytest.raises(TypeError, match="payload_cache_size"):
        OnlineRepacker(Repository(), payload_cache_size=8)


@pytest.mark.parametrize("scenario", ["LC", "DC", "BF"])
def test_batch_replays_shared_prefixes_once(scenario):
    graph = batch_bench.batch_benchmark_scenarios(scale=0.0, seed=3)[scenario]
    (row,) = batch_bench.batch_vs_sequential({scenario: graph}, seed=3)
    assert row["payload_mismatches"] == 0
    assert row["batch_deltas"] < row["sequential_deltas"]


def test_concurrent_serving_is_byte_identical():
    rows = serve_bench.concurrent_serving_benchmark(
        num_chains=2, chain_length=4, requests_per_chain=2, storage_latency=0.0
    )
    assert [row["config"] for row in rows] == ["single-lock", "striped", "speedup"]
    assert all(row["byte_identical"] for row in rows)
    assert not any(row["errors"] for row in rows)
