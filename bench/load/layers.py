"""Per-layer metrics: the traced run's span file turned into a time budget,
plus micro-benchmarks that reproduce single layers without the stack.

A layer's *self time* is its spans' duration minus the part of that interval
their child spans cover (the union of the children, so parallel branch
walkers are not subtracted twice).  The rows marked additive below are self
times per traced request; with ``transport.unaccounted_ms`` they sum to the
latency the client measured, which ``trace.accounted_ratio`` checks.  The
repack request is budgeted on its own, in seconds, under ``repack.*``.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import time
from collections import defaultdict
from typing import Callable

from datasets import edit_window, make_row
from loadgen import Sample

# metric -> span names whose self time it sums; together these rows are the
# handler's whole duration, so nothing the server did is left unnamed.
ADDITIVE = {
    "httpd.route_self_ms": ("httpd.handler",),
    "httpd.codec_encode_ms": ("httpd.codec_encode",),
    "httpd.codec_decode_ms": ("httpd.codec_decode",),
    "service.self_ms": ("service.checkout", "service.checkout_many", "service.commit"),
    "service.coordinator_wait_ms": ("service.coordinator_wait",),
    "service.stripe_wait_ms": ("service.stripe_wait",),
    "workload_log.record_ms": ("workload_log.record",),
    "catalog.workload_record_ms": ("catalog.workload_record",),
    "catalog.commit_txn_ms": ("catalog.commit_txn",),
    "batch.self_ms": ("batch.materialize", "batch.materialize_many"),
    "objects.get_ms": ("objects.get",),
    "objects.chain_resolve_ms": ("objects.chain_resolve",),
    "backends.get_ms": ("backends.get",),
    "backends.put_ms": ("backends.put",),
    "delta.apply_ms": ("delta.apply",),
    "delta.diff_ms": ("delta.diff",),
    "repository.commit_ms": ("repository.commit", "repository.checkout"),
}
# metric -> span names whose whole duration (children included) it sums;
# these overlap the additive rows and are not part of the budget's sum.
INCLUSIVE = {
    "httpd.handler_ms": ("httpd.handler",),
    "service.checkout_ms": ("service.checkout", "service.checkout_many"),
    "batch.materialize_ms": ("batch.materialize",),
    "batch.materialize_many_ms": ("batch.materialize_many",),
    "repository.commit_parent_checkout_ms": ("repository.checkout",),
}
CALLS = {
    "objects.get_calls": ("objects.get",),
    "backends.get_calls": ("backends.get",),
    "delta.apply_calls": ("delta.apply",),
}
REPACK_SECONDS = {
    "repack.cost_model_s": "repack.cost_model",
    "repack.solve_s": "repack.solve",
    "repack.stage_s": "repack.stage",
    "repack.swap_s": "repack.swap",
}


def _covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``[start, end]``."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return covered


def budget(trace_path: str, samples: list[Sample]) -> dict[str, float]:
    """Per-layer time metrics for the traced ``samples`` (see module docstring)."""
    with open(trace_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    names: list[str] = trace["names"]
    children: dict[int, list[int]] = defaultdict(list)
    spans: dict[int, tuple[int, float, float]] = {}
    for span_id, parent, name, start, end in trace["spans"]:
        spans[span_id] = (name, start, end)
        children[parent].append(span_id)
    root_of = {request_id: span_id for span_id, request_id in trace["roots"]}

    def totals(root: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        self_s: dict[str, float] = defaultdict(float)
        inclusive_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        pending = [root]
        while pending:
            span_id = pending.pop()
            name_index, start, end = spans[span_id]
            kids = children.get(span_id, ())
            name = names[name_index]
            self_s[name] += (end - start) - _covered(
                start, end, [spans[kid][1:] for kid in kids]
            )
            inclusive_s[name] += end - start
            calls[name] += 1
            pending.extend(kids)
        return self_s, inclusive_s, calls

    self_s: dict[str, float] = defaultdict(float)
    inclusive_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    repack_s: dict[str, float] = {}
    matched = 0
    client_ms = 0.0
    response_bytes = 0
    requests = [sample for sample in samples if sample.kind != "repack"]
    for sample in samples:
        root = root_of.get(sample.request_id)
        if root is None:
            continue
        one_self, one_inclusive, one_calls = totals(root)
        if sample.kind == "repack":
            repack_s = one_inclusive
            continue
        matched += 1
        client_ms += sample.latency_ms
        response_bytes += sample.response_bytes
        for name, value in one_self.items():
            self_s[name] += value
        for name, value in one_inclusive.items():
            inclusive_s[name] += value
        for name, value in one_calls.items():
            calls[name] += value

    metrics: dict[str, float] = {"trace.requests": float(matched)}
    if not matched:
        return metrics
    for metric, span_names in ADDITIVE.items():
        metrics[metric] = 1000.0 * sum(self_s[name] for name in span_names) / matched
    for metric, span_names in INCLUSIVE.items():
        metrics[metric] = 1000.0 * sum(inclusive_s[name] for name in span_names) / matched
    for metric, span_names in CALLS.items():
        metrics[metric] = sum(calls[name] for name in span_names) / matched
    for metric, span_name in REPACK_SECONDS.items():
        metrics[metric] = repack_s.get(span_name, 0.0)
    metrics["transport.unaccounted_ms"] = client_ms / matched - metrics["httpd.handler_ms"]
    metrics["transport.response_bytes"] = response_bytes / matched
    # Every traced-window request is in the denominator, so a request whose
    # spans were lost (no root matched its id) shows as unaccounted time.
    named_ms = sum(metrics[metric] for metric in ADDITIVE) + metrics["transport.unaccounted_ms"]
    metrics["trace.accounted_ratio"] = (
        named_ms * matched / sum(sample.latency_ms for sample in requests)
    )
    return metrics


# --------------------------------------------------------------------- #
# micro-benchmarks: one layer at a time, in the harness process
# --------------------------------------------------------------------- #
def _per_call(function: Callable[[], object], repeat: int) -> float:
    started = time.perf_counter()
    for _ in range(repeat):
        function()
    return (time.perf_counter() - started) / repeat


def micro(work_dir: str, seed: int, quick: bool) -> dict[str, float]:
    """Isolated costs of the backend, codec and delta layers."""
    from repro.delta.line_diff import LineDiffEncoder
    from repro.storage.backends import open_backend
    from repro.storage.objects import StoredObject

    rng = random.Random(seed)
    rows = 400 if quick else 2000
    repeat = 20 if quick else 100
    big = [make_row(rng, index, 0) for index in range(rows)]  # ~200 KB
    small = big[: rows // 10]  # what one replayed object holds
    metrics: dict[str, float] = {}

    for scheme, path in (("file", "micro-objects"), ("sqlite", "micro.db")):
        backend = open_backend(f"{scheme}://{os.path.join(work_dir, path)}")
        keys = iter(f"{index:064x}" for index in range(2 * repeat))

        def put() -> None:
            key = next(keys)
            backend.put(key, StoredObject(object_id=key, kind="full", payload=small))

        metrics[f"micro.backends.{scheme}.put_us"] = 1e6 * _per_call(put, repeat)
        metrics[f"micro.backends.{scheme}.get_us"] = 1e6 * _per_call(
            lambda: backend.get(f"{0:064x}"), repeat
        )

    metrics["micro.codec.pickle_us"] = 1e6 * _per_call(
        lambda: pickle.loads(pickle.dumps(big, protocol=pickle.HIGHEST_PROTOCOL)), repeat
    )
    metrics["micro.codec.json_us"] = 1e6 * _per_call(lambda: json.loads(json.dumps(big)), repeat)

    encoder = LineDiffEncoder()
    clustered = edit_window(rng, big, 10, 1)
    scattered = list(big)
    for index in range(rows // 20, rows, rows // 10):  # ten edits, end to end
        scattered[index] = make_row(rng, index, 2)
    delta = encoder.diff(big, clustered)
    metrics["micro.delta.line_diff.apply_us"] = 1e6 * _per_call(
        lambda: encoder.apply(big, delta), repeat
    )
    metrics["micro.delta.line_diff.diff_clustered_ms"] = 1e3 * _per_call(
        lambda: encoder.diff(big, clustered), repeat // 10
    )
    # One call: this is the O(n·m) LCS case and takes about a second.
    metrics["micro.delta.line_diff.diff_scattered_ms"] = 1e3 * _per_call(
        lambda: encoder.diff(big, scattered), 1
    )
    return metrics
