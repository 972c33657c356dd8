"""Tests for the experiment harness (settings, runner, every table/figure)."""

import runpy
import sys
import warnings

import numpy as np
import pytest

from repro.api.service import build_instance
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import (
    clear_caches,
    flat_ratio_sweep,
    flat_scenario_spec,
    limited_tree_study,
    online_sweep_runs,
    sweep_runs,
    sweep_scenario_spec,
)
from repro.experiments.settings import (
    flat_setting_for_scale,
    limited_tree_setting_for_scale,
    paper_flat_setting,
    paper_sweep_setting,
    quick_flat_setting,
    quick_sweep_setting,
    sweep_setting_for_scale,
    tiny_flat_setting,
)
from repro.metrics.distribution import top_fraction_share
from repro.metrics.summary import solution_table_row
from repro.obs import metrics as obs_metrics
from repro.store import STORE_ENV_VAR
from repro.util.errors import ConfigurationError
from repro.util.serialization import load_json

SCALE = "tiny"


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestSettings:
    def test_scale_resolution(self):
        assert flat_setting_for_scale("tiny") == tiny_flat_setting()
        assert flat_setting_for_scale("quick") == quick_flat_setting()
        assert flat_setting_for_scale("paper") == paper_flat_setting()
        assert sweep_setting_for_scale("quick") == quick_sweep_setting()
        assert sweep_setting_for_scale("paper") == paper_sweep_setting()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            flat_setting_for_scale("huge")
        with pytest.raises(ConfigurationError):
            sweep_setting_for_scale("huge")
        with pytest.raises(ConfigurationError):
            limited_tree_setting_for_scale("huge")

    def test_flat_setting_builds_consistent_instance(self):
        setting = tiny_flat_setting()
        network, sessions, _ = build_instance(
            setting.scenario_spec("ip", "maxflow", setting.ratios[0])
        )
        assert len(sessions) == len(setting.session_sizes)
        for session, size in zip(sessions, setting.session_sizes):
            assert session.size == size
            session.validate_against(network)

    def test_flat_setting_routing_kinds(self):
        setting = tiny_flat_setting()

        def routing(kind):
            return build_instance(setting.scenario_spec(kind, "maxflow", 0.8))[2]

        assert not routing("ip").is_dynamic
        assert routing("dynamic").is_dynamic
        with pytest.raises(ConfigurationError):
            routing("bogus")

    def test_sweep_setting_builds_sessions(self):
        setting = sweep_setting_for_scale("tiny")
        _, sessions, _ = build_instance(setting.scenario_spec(2, 3, "maxflow"))
        assert len(sessions) == 2
        assert all(s.size == 3 for s in sessions)
        assert setting.grid_points() == [
            (count, size)
            for count in setting.session_counts
            for size in setting.session_sizes
        ]


class TestRunner:
    def test_flat_instance_cached(self):
        # Every cell of a flat sweep shares one built instance.
        maxflow = build_instance(flat_scenario_spec(SCALE, "ip", "maxflow", 0.8))
        concurrent = build_instance(flat_scenario_spec(SCALE, "ip", "maxconcurrent", 0.9))
        assert maxflow is concurrent

    def test_flat_ratio_sweep_keys(self):
        solutions = flat_ratio_sweep(SCALE, "ip", "maxflow")
        assert set(solutions) == set(flat_setting_for_scale(SCALE).ratios)
        for solution in solutions.values():
            assert solution.is_feasible(tolerance=1e-6)

    def test_flat_ratio_sweep_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            flat_ratio_sweep(SCALE, "ip", "bogus")

    def test_limited_tree_study_shapes(self):
        study = limited_tree_study(SCALE, "ip")
        setting = limited_tree_setting_for_scale(SCALE)
        assert [p.tree_limit for p in study.points] == list(setting.tree_limits)
        for point in study.points:
            assert point.random_throughput <= study.fractional.overall_throughput + 1e-6
            for sigma in setting.sigmas:
                assert point.online_throughput[sigma] > 0

    def test_sweep_runs_cover_grid(self):
        setting = sweep_setting_for_scale(SCALE)
        runs = sweep_runs(SCALE, "maxflow")
        assert list(runs) == setting.grid_points()
        for (count, size), solution in runs.items():
            assert solution.is_feasible(tolerance=1e-6)
            _, sessions, _ = build_instance(sweep_scenario_spec(SCALE, "maxflow", count, size))
            assert [s.session.members for s in solution.sessions] == [
                s.members for s in sessions
            ]

    def test_online_sweep_runs(self):
        runs = online_sweep_runs(SCALE, tree_limit=2)
        assert len(runs) > 0
        for solution in runs.values():
            assert solution.is_feasible(tolerance=1e-6)


class TestExperimentRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {"table2", "table4", "table7", "table8"} | {
            f"fig{i}" for i in range(2, 20)
        }
        assert expected == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_every_experiment_runs_at_tiny_scale(experiment_id, tmp_path):
    result = run_experiment(experiment_id, scale=SCALE)
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.scale == SCALE
    assert result.rendered
    assert result.data
    # Results must be JSON-serialisable and round-trip through disk.
    path = result.save(tmp_path)
    loaded = load_json(path)
    assert loaded["experiment_id"] == experiment_id


class TestExperimentContent:
    def test_table2_columns_match_ratios(self):
        result = run_experiment("table2", scale=SCALE)
        ratios = flat_setting_for_scale(SCALE).ratios
        assert set(result.data["columns"]) == {f"{r:g}" for r in ratios}
        column = next(iter(result.data["columns"].values()))
        assert "overall_throughput" in column
        assert "rate_session_1" in column
        for ratio, solution in flat_ratio_sweep(SCALE, "ip", "maxflow").items():
            assert result.data["columns"][f"{ratio:g}"] == solution_table_row(solution)

    def test_table4_reports_prescale_cost(self):
        result = run_experiment("table4", scale=SCALE)
        column = next(iter(result.data["columns"].values()))
        assert "prescale_oracle_calls" in column

    @pytest.mark.parametrize(
        "experiment_id, label",
        [
            ("table2", "Table II — MaxFlow (fixed IP routing)"),
            ("table4", "Table IV — MaxConcurrentFlow (fixed IP routing)"),
            ("table7", "Table VII — MaxFlow (arbitrary routing)"),
            ("table8", "Table VIII — MaxConcurrentFlow (arbitrary routing)"),
            ("fig5", "Fig 5(a) — overall throughput vs tree limit"),
            ("fig6", "Fig 6 — distinct trees used vs tree limit"),
            ("fig10", "Fig 10(a) — overall throughput vs tree limit, arbitrary routing"),
            ("fig11", "Fig 11 — distinct trees used vs tree limit, arbitrary routing"),
        ],
    )
    def test_each_body_is_labelled_with_its_own_experiment(self, experiment_id, label):
        # Section V re-runs Section III/IV's tables and figures under
        # dynamic routing; each body must name Section V's own number.
        result = run_experiment(experiment_id, scale=SCALE)
        if experiment_id in ("fig5", "fig10"):
            optimum = result.data["fractional_throughput"]
            label += f" (fractional optimum {optimum:.1f})"
        assert result.rendered.splitlines()[0] == label

    def test_notes_name_the_scale_they_ran_at(self):
        for experiment_id in ("table2", "fig4", "table7"):
            notes = run_experiment(experiment_id, scale=SCALE).notes
            assert notes.startswith("Tiny scale: "), notes

    def test_table7_reports_ip_comparison(self):
        result = run_experiment("table7", scale=SCALE)
        assert "throughput_improvement_vs_ip" in result.data
        # Arbitrary routing can only help (within FPTAS noise); the size of
        # the gain is topology dependent, so only the direction is asserted.
        for value in result.data["throughput_improvement_vs_ip"].values():
            assert np.isfinite(value)
            assert value > -0.15

    def test_fig2_contains_distribution_series(self):
        result = run_experiment("fig2", scale=SCALE)
        sessions = result.data["sessions"]
        assert "session_1" in sessions
        series = next(iter(sessions["session_1"].values()))
        assert series["cumulative_fraction"][-1] == pytest.approx(1.0)

    def test_top10_lines_print_top_fraction_share(self):
        # Each Fig 2/3 top-10% line prints its session's top_fraction_share,
        # also for a tree count that is not a multiple of ten (13 trees in
        # Fig 3's session 1 at this scale).
        uneven = 0
        for experiment_id, algorithm in (("fig2", "maxflow"), ("fig3", "maxconcurrent")):
            solutions = sorted(flat_ratio_sweep(SCALE, "ip", algorithm).items())
            expected = []
            for index in range(len(solutions[0][1].sessions)):
                for ratio, solution in solutions:
                    session = solution.sessions[index]
                    uneven += session.num_trees % 10 != 0
                    expected.append(
                        f"session {index + 1} ratio {ratio:g}: top-10% trees carry "
                        f"{top_fraction_share(session, 0.1):.2%} of the rate "
                        f"({session.num_trees} trees)"
                    )
            result = run_experiment(experiment_id, scale=SCALE)
            assert result.rendered.splitlines() == expected
        assert uneven

    def test_fig9_series_cover_every_edge_with_flow(self):
        # Under dynamic routing the trees leave the fixed-IP routes, so
        # each Fig 9 series holds one entry per edge that carries flow.
        result = run_experiment("fig9", scale=SCALE)
        for algorithm, label in (("maxflow", "MaxFlow"), ("maxconcurrent", "MaxConcurrentFlow")):
            for ratio, solution in flat_ratio_sweep(SCALE, "dynamic", algorithm).items():
                series = result.data["algorithms"][label][f"{ratio:g}"]
                used = int(np.count_nonzero(solution.edge_flows() > 0))
                assert len(series["utilization"]) == used
                assert series["links"] == used
                assert min(series["utilization"]) > 0

    def test_fig5_series_lengths(self):
        result = run_experiment("fig5", scale=SCALE)
        limits = result.data["tree_limits"]
        assert len(result.data["random"]["throughput"]) == len(limits)
        for series in result.data["online"].values():
            assert len(series["throughput"]) == len(limits)

    def test_fig12_surface_shape(self):
        result = run_experiment("fig12", scale=SCALE)
        counts = result.data["session_counts"]
        sizes = result.data["session_sizes"]
        values = np.asarray(result.data["values"])
        assert values.shape == (len(counts), len(sizes))
        assert np.all(values > 0)

    def test_fig16_ratios_at_most_one(self):
        result = run_experiment("fig16", scale=SCALE)
        values = np.asarray(result.data["values"])
        # MaxConcurrentFlow can never beat MaxFlow on overall throughput by
        # more than FPTAS noise.
        assert np.all(values <= 1.15)

    def test_fig18_and_fig19_ratios_bounded(self):
        for experiment_id in ("fig18", "fig19"):
            result = run_experiment(experiment_id, scale=SCALE)
            for surface in result.data["surfaces"].values():
                values = np.asarray(surface["values"])
                assert np.all(values >= 0.0)
                assert np.all(values <= 1.5)


@pytest.mark.parametrize("section, cold", [(3, 2), (4, 7), (5, 10), (6, 16)])
def test_section_cli_solves_each_cell_once(section, cold, monkeypatch, capsys):
    # The runner keeps every solution by canonical key, so a section
    # solves each distinct cell once: section 5's dynamic limited-tree
    # study reuses the flat dynamic MaxConcurrentFlow cell at ratio 0.80
    # as its fractional reference.
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    monkeypatch.setattr(sys, "argv", [f"section{section}", "--scale", SCALE])
    clear_caches()
    solves = obs_metrics.registry().counter(
        "repro_solve_total", labels={"outcome": "cold"}
    )
    before = solves.value
    with warnings.catch_warnings():
        # runpy warns that the section module is already imported.
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module(f"repro.experiments.section{section}", run_name="__main__")
    assert solves.value - before == cold
    assert capsys.readouterr().out
