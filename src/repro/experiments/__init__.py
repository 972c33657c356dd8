"""Experiment harness: one entry per table/figure of the paper's evaluation.

Every experiment is exposed as a function taking a scale (``"quick"`` for
seconds-scale runs used by the benchmark suite and CI, ``"paper"`` for the
full-size reproduction) and returning an
:class:`~repro.experiments.report.ExperimentResult` whose ``data`` field
holds the series/rows of the corresponding table or figure and whose
``rendered`` field is a printable report.

Use :func:`run_experiment` / :data:`EXPERIMENTS` to drive them by id
(``"table2"``, ``"fig5"``, ...).
"""

import importlib

from repro.experiments.report import ExperimentResult
from repro.experiments.settings import (
    FlatSetting,
    SweepSetting,
    LimitedTreeSetting,
    quick_flat_setting,
    paper_flat_setting,
    quick_sweep_setting,
    paper_sweep_setting,
)

#: Experiment id → the section module that defines it under that name.
#: Sections are imported only when one of their experiments runs, so
#: ``python -m repro.experiments.sectionN`` finds its module unimported.
EXPERIMENTS = {
    **dict.fromkeys(("table2", "table4", "fig2", "fig3", "fig4"), "section3"),
    **dict.fromkeys(("fig5", "fig6"), "section4"),
    **dict.fromkeys(
        ("table7", "table8", "fig7", "fig8", "fig9", "fig10", "fig11"), "section5"
    ),
    **dict.fromkeys([f"fig{n}" for n in range(12, 20)], "section6"),
}


def run_experiment(experiment_id: str, scale: str = "quick") -> ExperimentResult:
    """Run a paper experiment by its id (``"table2"``, ``"fig12"``, ...)."""
    try:
        section = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from exc
    module = importlib.import_module(f"repro.experiments.{section}")
    return getattr(module, experiment_id)(scale=scale)


__all__ = [
    "ExperimentResult",
    "FlatSetting",
    "SweepSetting",
    "LimitedTreeSetting",
    "quick_flat_setting",
    "paper_flat_setting",
    "quick_sweep_setting",
    "paper_sweep_setting",
    "EXPERIMENTS",
    "run_experiment",
]
