"""Baseline storage schemes the paper compares against (Section 5.2).

* :mod:`~repro.baselines.naive` — materialize everything;
* :mod:`~repro.baselines.svn_skip_delta` — SVN's FSFS skip-delta placement;
* :mod:`~repro.baselines.gzip_baseline` — compress every version
  independently.
"""

from .gzip_baseline import GzipReport, gzip_cost_report
from .naive import materialize_all_plan
from .svn_skip_delta import SkipDeltaReport, skip_delta_parent_index, svn_skip_delta_report

__all__ = [
    "GzipReport",
    "gzip_cost_report",
    "materialize_all_plan",
    "SkipDeltaReport",
    "skip_delta_parent_index",
    "svn_skip_delta_report",
]
