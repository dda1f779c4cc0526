"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures (see the
E1–E8 section comments of :mod:`repro.bench.experiments`).  The datasets are scaled-down versions of the
paper's DC/LC/BF/LF workloads; the scale can be raised with the
``REPRO_BENCH_SCALE`` environment variable (default 0.25) to run closer to
the original sizes at the cost of wall-clock time.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.datagen import all_scenarios, densely_connected  # noqa: E402

_BENCH_DIR = os.path.abspath(os.path.dirname(__file__))


def pytest_collection_modifyitems(config, items):
    """Mark every test in this directory ``slow`` so tier-1 skips them."""
    for item in items:
        if os.path.abspath(str(item.fspath)).startswith(_BENCH_DIR + os.sep):
            item.add_marker(pytest.mark.slow)


def bench_scale() -> float:
    """Scale factor for the benchmark datasets."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))


@pytest.fixture(scope="session")
def scenario_datasets():
    """The four canonical DC/LC/BF/LF datasets at benchmark scale."""
    return all_scenarios(scale=bench_scale(), seed=11)


@pytest.fixture(scope="session")
def undirected_dc():
    """An undirected (Scenario 1) DC dataset for the Figure 15 benches."""
    return densely_connected(
        max(25, int(200 * bench_scale())), seed=13, directed=False, proportional=True
    )


def print_series_table(title: str, headers, rows) -> None:
    """Print a figure's series so the bench output mirrors the paper's plots."""
    from repro.bench.harness import format_table

    print(f"\n=== {title} ===")
    print(format_table(headers, rows))
