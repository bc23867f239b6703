"""Benchmark regenerating Fig. 3(a): KFusion DSE on the ODROID-XU3."""

from repro.experiments.fig3_kfusion_dse import format_fig3, run_fig3
from repro.utils.serialization import dump_json


def test_fig3_kfusion_dse_odroid(benchmark, scale, kfusion_runner, results_dir, shared_results):
    """Random sampling + active learning on the KFusion space, ODROID-XU3 runtime model."""
    result = benchmark.pedantic(
        lambda: run_fig3("odroid-xu3", scale, seed=7, runner=kfusion_runner),
        rounds=1,
        iterations=1,
    )
    shared_results["fig3_odroid"] = result
    print()
    print(format_fig3(result))
    dump_json(result, results_dir / "fig3_kfusion_odroid.json")

    # Qualitative claims of the paper that must hold at any scale:
    # the default is far from real time, the tuned front contains a much
    # faster valid configuration, and active learning contributes new points.
    assert result["default_fps"] < 15.0
    assert result["best_speedup_over_default"] > 2.0
    assert result["n_pareto_points"] >= 1
    assert result["n_valid_random"] >= 1
