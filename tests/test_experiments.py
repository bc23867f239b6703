"""Smoke-scale integration tests of the experiment harnesses.

These exercise the full path (design space -> HyperMapper -> SLAM simulation ->
device runtime model -> report) at the tiny SMOKE scale, checking structural
invariants and the qualitative claims rather than absolute numbers.
"""

import json

import numpy as np
import pytest

from repro.experiments.common import SMOKE, make_runner
from repro.experiments.fig1_response_surface import format_fig1, run_fig1
from repro.experiments.fig3_kfusion_dse import format_fig3, run_fig3
from repro.experiments.fig4_elasticfusion_dse import format_fig4, run_fig4
from repro.experiments.fig5_crowdsourcing import format_fig5, run_fig5
from repro.experiments.table1_pareto import format_table1, run_table1
from repro.utils.serialization import to_jsonable


@pytest.fixture(scope="module")
def shared_kfusion_runner():
    return make_runner("kfusion", SMOKE, dataset_seed=3)


@pytest.fixture(scope="module")
def fig3_result(shared_kfusion_runner):
    return run_fig3("odroid-xu3", SMOKE, seed=3, runner=shared_kfusion_runner)


@pytest.fixture(scope="module")
def fig4_result():
    return run_fig4(scale=SMOKE, seed=4)


class TestFig1:
    def test_surface_shape_and_report(self, shared_kfusion_runner):
        result = run_fig1(SMOKE, runner=shared_kfusion_runner)
        runtime = np.asarray(result["runtime_s"])
        assert runtime.shape == (len(result["mu_values"]), len(result["icp_threshold_values"]))
        assert np.all(runtime > 0)
        assert result["runtime_spread"] > 1.05, "runtime must vary across the 2-parameter slice"
        report = format_fig1(result)
        assert "Fig. 1" in report
        json.dumps(to_jsonable(result))


class TestFig3:
    def test_counts_consistent(self, fig3_result):
        r = fig3_result
        assert r["n_valid_random"] <= r["n_random_samples"]
        assert r["n_pareto_points"] >= 1
        assert r["n_pareto_points"] >= r["n_pareto_points_random_only"] or r["n_active_learning_samples"] == 0
        assert len(r["active_learning_front"]) == r["n_pareto_points"]

    def test_front_points_feasible_and_sorted(self, fig3_result):
        front = fig3_result["active_learning_front"]
        ates = [p["max_ate_m"] for p in front]
        assert all(a <= fig3_result["accuracy_limit_m"] + 1e-9 for a in ates)

    def test_best_speed_beats_default(self, fig3_result):
        assert fig3_result["best_speedup_over_default"] > 1.0
        assert fig3_result["best_speed_metrics"]["runtime_s"] < fig3_result["default_metrics"]["runtime_s"]

    def test_default_fps_near_anchor(self, fig3_result):
        assert 3.0 < fig3_result["default_fps"] < 12.0

    def test_report_renders(self, fig3_result):
        text = format_fig3(fig3_result)
        assert "Pareto front" in text and "speedup" in text

    def test_asus_reuses_simulations(self, shared_kfusion_runner, fig3_result):
        before = shared_kfusion_runner.n_simulations
        asus = run_fig3("asus-t200ta", SMOKE, seed=3, runner=shared_kfusion_runner)
        after = shared_kfusion_runner.n_simulations
        # Configurations shared with the ODROID run (at least the default
        # configuration, which was already simulated there) are reused, so the
        # number of new simulations never exceeds the number of evaluations.
        total_evals = asus["n_random_samples"] + asus["n_active_learning_samples"] + 1  # +1 for the default
        assert after - before < total_evals
        assert asus["platform_key"] == "asus-t200ta"


class TestFig4AndTable1:
    def test_fig4_structure(self, fig4_result):
        r = fig4_result
        assert r["n_pareto_points"] >= 1
        assert r["default_metrics"]["mean_ate_m"] > 0
        assert len(r["pareto_records"]) == r["n_pareto_points"]
        assert "Fig. 4" in format_fig4(r)

    def test_fig4_finds_improvement_over_default(self, fig4_result):
        # The DSE should improve at least one of the two objectives over the
        # hand-tuned default (the paper improves both).
        assert (
            fig4_result["best_speedup_over_default"] > 1.0
            or fig4_result["best_accuracy_gain_over_default"] > 1.0
        )

    def test_table1_rows(self, fig4_result):
        result = run_table1(SMOKE, fig4_result=fig4_result)
        rows = result["rows"]
        assert rows[0]["label"] == "Default"
        assert rows[0]["icp_rgb_weight"] == 10.0
        assert rows[0]["SO3"] == 1 and rows[0]["Close-Loops"] == 0 and rows[0]["Reloc"] == 1
        labels = [r["label"] for r in rows]
        assert "Best speed" in labels
        text = format_table1(result)
        assert "Table I" in text and "Default" in text
        json.dumps(to_jsonable(result))


class TestFig5:
    def test_speedup_distribution(self, shared_kfusion_runner, fig3_result):
        result = run_fig5(SMOKE, seed=3, tuned_config=fig3_result["best_speed_config"], runner=shared_kfusion_runner)
        assert result["n_devices"] == SMOKE.crowd_devices
        speedups = np.array(result["speedups"])
        assert np.all(speedups > 1.0)
        assert result["statistics"]["max"] <= 40.0
        # Zero-shot transfer: runtimes strongly rank-correlated across devices.
        assert all(c["spearman"] > 0.5 for c in result["cross_device_correlations"])
        assert "Fig. 5" in format_fig5(result)
        json.dumps(to_jsonable(result))
