"""Regenerate (small-scale versions of) every table and figure of the paper.

This driver runs the E1–E8 experiments (the ``# E1 — …`` to ``# E8 — …``
sections of :mod:`repro.bench.experiments`) on scaled-down
DC/LC/BF/LF datasets and prints the resulting series as plain-text tables.
The full-size runs live in ``benchmarks/``; this script is the quick,
human-readable tour.

Run with::

    python examples/paper_figures.py [scale]

where ``scale`` (default 0.3) multiplies the number of versions in every
dataset.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import datagen
from repro.bench import experiments, format_table
from repro.bench.harness import SweepSeries


def print_sweeps(title: str, result: dict) -> None:
    """Render the reference costs and every sweep series of a figure."""
    print(f"--- {title} ---")
    references = result["references"]
    print(
        "  references: "
        f"MCA storage={references['mca_storage']:.3g}, "
        f"SPT sum recreation={references['spt_sum_recreation']:.3g}"
    )
    for name, series in result.items():
        if not isinstance(series, SweepSeries):
            continue
        rows = [
            [point.parameter, point.storage_cost, point.sum_recreation, point.max_recreation]
            for point in series.points
        ]
        print(f"  {name}:")
        table = format_table(
            ["parameter", "storage", "sum recreation", "max recreation"], rows
        )
        print("    " + table.replace("\n", "\n    "))
    print()


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    datasets = datagen.all_scenarios(scale=scale)

    # E1 - Figure 12: dataset properties.
    print("=== Figure 12: dataset properties ===")
    properties = experiments.figure12_dataset_properties(datasets)
    headers = ["dataset", "versions", "deltas", "MCA storage", "MCA sum R", "SPT storage", "SPT max R"]
    rows = [
        [
            name,
            summary["num_versions"],
            summary["num_deltas"],
            summary["mca_storage_cost"],
            summary["mca_sum_recreation"],
            summary["spt_storage_cost"],
            summary["spt_max_recreation"],
        ]
        for name, summary in properties.items()
    ]
    print(format_table(headers, rows))
    print()

    # E2 - Section 5.2: VCS comparison on the LF-style dataset.
    print("=== Section 5.2: gzip / SVN / GitH / MCA on LF ===")
    comparison = experiments.section52_vcs_comparison(datasets["LF"])
    rows = [
        [name, report["storage_cost"], report["sum_recreation"], report["max_recreation"]]
        for name, report in comparison.items()
    ]
    print(format_table(["scheme", "storage", "sum recreation", "max recreation"], rows))
    print()

    # E3 - Figure 13: directed case, sum of recreation costs.
    for name in ("DC", "LC"):
        result = experiments.figure13_directed_sum_recreation(datasets[name])
        print_sweeps(f"Figure 13 ({name}): storage vs sum of recreation", result)

    # E4 - Figure 14: directed case, max recreation cost.
    result = experiments.figure14_directed_max_recreation(datasets["LF"])
    print_sweeps("Figure 14 (LF): storage vs max recreation", result)

    # E5 - Figure 15: undirected case.
    undirected = datagen.densely_connected(
        max(20, int(150 * scale)), directed=False, seed=5
    )
    result = experiments.figure15_undirected(undirected)
    print_sweeps("Figure 15 (DC, undirected): storage vs sum of recreation", result)

    # E6 - Figure 16: workload-aware LMG.
    print("=== Figure 16: workload-aware LMG (DC) ===")
    workload_result = experiments.figure16_workload_aware(datasets["DC"])
    rows = []
    for (budget, aware), (_, oblivious) in zip(
        workload_result["LMG-W"], workload_result["LMG"]
    ):
        rows.append([budget, oblivious, aware])
    print(format_table(["storage budget", "weighted R (LMG)", "weighted R (LMG-W)"], rows))
    print()

    # E7 - Figure 17: running times.
    print("=== Figure 17: running times (LC subgraphs) ===")
    timing_rows = experiments.figure17_running_times(
        datasets["LC"], sizes=(20, 40, 80, len(datasets["LC"].graph))
    )
    rows = [
        [row["num_versions"], row["lmg_seconds"], row["mp_seconds"], row["last_seconds"]]
        for row in timing_rows
    ]
    print(format_table(["versions", "LMG (s)", "MP (s)", "LAST (s)"], rows))
    print()

    # E8 - Table 2: ILP vs MP on a small instance.
    print("=== Table 2: ILP vs MP (15-version instance, all-pairs deltas) ===")
    small = datagen.densely_connected(15, seed=9, hop_limit=0)
    thresholds = [
        factor * max(
            small.instance.materialization_recreation(vid)
            for vid in small.instance.version_ids
        )
        for factor in (1.0, 1.2, 1.5, 2.0, 3.0)
    ]
    table2 = experiments.table2_ilp_vs_mp(small.instance, thresholds)
    rows = [
        [row["theta"], row.get("ilp_storage"), row["mp_storage"]] for row in table2
    ]
    print(format_table(["theta", "ILP storage", "MP storage"], rows))


if __name__ == "__main__":
    main()
