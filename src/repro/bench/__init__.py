"""Benchmark harness: sweeps, reference costs and per-figure experiment drivers.

The :mod:`~repro.bench.experiments` module has one driver per table/figure of
the paper's evaluation (its ``# E1 — …`` to ``# E8 — …`` section comments
are the E1–E8 experiment index); the :mod:`~repro.bench.harness` module holds the shared sweep and formatting
machinery; :mod:`~repro.bench.batch_bench` compares the batch checkout
engine against naive sequential serving on the LC/DC/BF scenarios.
"""

from . import batch_bench, experiments
from .batch_bench import batch_vs_sequential, build_repository_from_graph
from .harness import (
    SweepPoint,
    SweepSeries,
    budget_grid,
    format_table,
    reference_costs,
    sweep_gith,
    sweep_last,
    sweep_lmg,
    sweep_mp,
)

__all__ = [
    "batch_bench",
    "experiments",
    "batch_vs_sequential",
    "build_repository_from_graph",
    "SweepPoint",
    "SweepSeries",
    "budget_grid",
    "format_table",
    "reference_costs",
    "sweep_gith",
    "sweep_last",
    "sweep_lmg",
    "sweep_mp",
]
