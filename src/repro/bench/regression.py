"""Bench regression gate: fresh ``BENCH_*.json`` vs committed baselines.

CI has emitted benchmark trajectory files since ROADMAP item 5 landed,
but nothing ever *read* them — a perf regression sailed through review
as an artifact nobody opened.  This module closes that loop: the
``bench-artifacts`` job runs

.. code-block:: console

    python -m repro.bench.regression \
        --baseline bench/baselines/BENCH_serve.json --fresh BENCH_serve.json

and fails the build when a key metric's median regresses by more than
the threshold (default 20%).

The gated metrics are deliberately the *deterministic work counters*
(delta applications, hit rates, relative model error) rather than wall
seconds: CI runners vary wildly in speed, and a latency gate on shared
hardware flakes.  The work counters are seeded and machine-independent —
when one moves, the code changed behaviour, not the hardware.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Mapping, Sequence

__all__ = [
    "KEY_METRICS",
    "DEFAULT_THRESHOLD",
    "median_of",
    "compare_documents",
    "main",
]

#: Per-benchmark gated metrics: ``(group, field, direction)`` where
#: direction is ``"lower"`` (less is better) or ``"higher"``.  A group or
#: field absent from the *baseline* is skipped — new benchmarks gate from
#: the first PR that commits a baseline containing them — but one absent
#: from the *fresh* run fails: a benchmark silently dropping out of the
#: artifact is itself a regression.
KEY_METRICS: dict[str, list[tuple[str, str, str]]] = {
    "serve": [
        ("serve_warm_vs_cold", "warm_deltas", "lower"),
        ("serve_warm_vs_cold", "cold_deltas", "lower"),
        ("warm_pricing", "cost_rel_error", "lower"),
        ("warm_pricing", "delta_rel_error", "lower"),
        ("tiered_cache", "tiered_warm_deltas", "lower"),
        ("tiered_cache", "tiered_hit_rate", "higher"),
    ],
    "batch": [
        ("batch_vs_sequential", "batch_deltas", "lower"),
        ("batch_vs_sequential", "delta_savings", "higher"),
        ("batch_vs_sequential", "payload_mismatches", "lower"),
    ],
}

DEFAULT_THRESHOLD = 0.20
#: Absolute slack so a 0-vs-tiny float jitter never trips the gate.
_EPSILON = 1e-9


def median_of(rows: Sequence[Mapping[str, Any]], field: str) -> float | None:
    """Median of ``field`` across the rows that carry it numerically."""
    values = [
        float(row[field])
        for row in rows
        if isinstance(row.get(field), (int, float)) and not isinstance(row.get(field), bool)
    ]
    if not values:
        return None
    return float(statistics.median(values))


def compare_documents(
    baseline: Mapping[str, Any],
    fresh: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[dict[str, Any]]:
    """Regressions of *fresh* against *baseline*; empty list means pass.

    Both arguments are ``BENCH_*.json`` documents (see
    :mod:`repro.bench.results`).  Each returned entry names the group,
    field, both medians and the allowed bound that was exceeded.
    """
    benchmark = str(baseline.get("benchmark", ""))
    specs = KEY_METRICS.get(benchmark)
    if specs is None:
        raise ValueError(
            f"no gated metrics for benchmark {benchmark!r} "
            f"(known: {sorted(KEY_METRICS)})"
        )
    if fresh.get("benchmark") != benchmark:
        raise ValueError(
            f"benchmark mismatch: baseline {benchmark!r} "
            f"vs fresh {fresh.get('benchmark')!r}"
        )
    base_metrics = baseline.get("metrics") or {}
    fresh_metrics = fresh.get("metrics") or {}
    regressions: list[dict[str, Any]] = []
    for group, field, direction in specs:
        base_median = median_of(base_metrics.get(group) or [], field)
        if base_median is None:
            continue  # not in the committed baseline yet
        fresh_median = median_of(fresh_metrics.get(group) or [], field)
        if fresh_median is None:
            regressions.append(
                {
                    "group": group,
                    "field": field,
                    "baseline": base_median,
                    "fresh": None,
                    "allowed": base_median,
                    "detail": "metric missing from the fresh run",
                }
            )
            continue
        if direction == "lower":
            allowed = base_median * (1.0 + threshold) + _EPSILON
            regressed = fresh_median > allowed
        else:
            allowed = base_median * (1.0 - threshold) - _EPSILON
            regressed = fresh_median < allowed
        if regressed:
            regressions.append(
                {
                    "group": group,
                    "field": field,
                    "baseline": base_median,
                    "fresh": fresh_median,
                    "allowed": allowed,
                    "detail": f"{direction} is better",
                }
            )
    return regressions


def _load(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="fail when fresh BENCH_*.json medians regress vs a baseline"
    )
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--fresh", required=True, help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional regression allowed per metric (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    regressions = compare_documents(baseline, fresh, threshold=args.threshold)
    benchmark = baseline.get("benchmark")
    if not regressions:
        print(f"bench regression gate: {benchmark} OK ({args.fresh} vs {args.baseline})")
        return 0
    print(f"bench regression gate: {benchmark} FAILED ({len(regressions)} regressions)")
    for entry in regressions:
        fresh_repr = "missing" if entry["fresh"] is None else f"{entry['fresh']:.4g}"
        print(
            f"  {entry['group']}.{entry['field']}: median {fresh_repr} "
            f"vs baseline {entry['baseline']:.4g} "
            f"(allowed {entry['allowed']:.4g}; {entry['detail']})"
        )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
