"""Evaluation metrics: one definition of each statistic the paper reports.

The section experiments (:mod:`repro.experiments`) define no share, ratio
or table row of their own; each comes from here:

* :mod:`distribution` — accumulative tree-rate distributions and the
  top-10% rate share (Figs 2, 3, 7, 8, 17),
* :mod:`utilization` — link-utilization ratio series, their mean and
  staircase (Figs 4, 9, 14), and edges-per-node counts (Fig 13),
* :mod:`fairness` — algorithm-versus-algorithm ratios (Figs 16, 18, 19),
  the arbitrary-over-IP throughput gain (Tables VII, VIII) and Jain's
  index,
* :mod:`summary` — row builders for the Table II / IV / VII / VIII style
  reports.
"""

from repro.metrics.distribution import (
    tree_rate_distribution,
    top_fraction_share,
)
from repro.metrics.utilization import (
    link_utilization_series,
    utilization_staircase,
    covered_edge_count,
    edges_per_node,
    mean_utilization,
)
from repro.metrics.fairness import (
    jains_index,
    min_rate_ratio,
    throughput_improvement,
    throughput_ratio,
)
from repro.metrics.summary import (
    solution_table_row,
    solutions_to_table,
    compare_solutions,
)

__all__ = [
    "tree_rate_distribution",
    "top_fraction_share",
    "link_utilization_series",
    "utilization_staircase",
    "covered_edge_count",
    "edges_per_node",
    "mean_utilization",
    "jains_index",
    "min_rate_ratio",
    "throughput_improvement",
    "throughput_ratio",
    "solution_table_row",
    "solutions_to_table",
    "compare_solutions",
]
