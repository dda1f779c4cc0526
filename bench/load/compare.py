#!/usr/bin/env python3
"""Compare two ``BENCH_load.json`` files (``run.py --repeat N`` output).

    python3 bench/load/compare.py BASE.json CHANGE.json

One row per (workload, end-to-end metric), judged by the direction and bound
``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — the change's median is worse than the base's by more than
  the bound;
* ``unresolved`` — not regressed, but the spread between either side's own
  runs (quartile distance over median) is wider than the bound, so "no
  change" cannot be told from "changed";
* ``ok``         — neither.

Client-side figures that only one workload has (``commit_p50_ms``,
``repack_s``, ...) are listed as ``info`` rows with their change and no
verdict.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
INFO = ("commit_p50_ms", "commit_p95_ms", "repack_s", "checkout_during_repack_p50_ms", "checkout_p99_ms")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def worsening(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    return (change - base) / base if better == "lower" else (base - change) / base


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load(path)["summary"] for path in argv)
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    regressed = 0
    print(f"{'workload':18s} {'metric':30s} {'base':>12s} {'change':>12s} {'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        before, after = base.get(workload, {}), change.get(workload, {})
        rows = [(m["name"], m["better"], m["bound"]) for m in contract["end_to_end"]]
        rows += [(name, "lower", None) for name in INFO]
        for name, better, bound in rows:
            if name not in before or name not in after:
                continue
            a, b = before[name], after[name]
            worse = worsening(a["median"], b["median"], better)
            widest = max(spread(a), spread(b))
            if bound is None:
                verdict = "info"
            elif worse > bound:
                verdict = "regressed"
                regressed += 1
            elif widest > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            shown = f"{bound:6.0%}" if bound is not None else f"{'-':>6s}"
            print(
                f"{workload:18s} {name:30s} {a['median']:12.4f} {b['median']:12.4f} "
                f"{worse:+9.1%} {shown} {widest:7.1%}  {verdict}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
