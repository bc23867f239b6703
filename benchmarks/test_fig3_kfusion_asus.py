"""Benchmark regenerating Fig. 3(b): KFusion DSE on the ASUS T200TA."""

from repro.experiments.fig3_kfusion_dse import format_fig3, run_fig3
from repro.utils.serialization import dump_json


def test_fig3_kfusion_dse_asus(benchmark, scale, kfusion_runner, results_dir):
    """Same exploration protocol as Fig. 3(a) on the ASUS T200TA runtime model.

    The shared runner reuses every pipeline simulation already performed for
    the ODROID-XU3 benchmark (accuracy is device-independent).
    """
    result = benchmark.pedantic(
        lambda: run_fig3("asus-t200ta", scale, seed=7, runner=kfusion_runner),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_fig3(result))
    dump_json(result, results_dir / "fig3_kfusion_asus.json")

    assert result["best_speedup_over_default"] > 2.0
    assert result["n_pareto_points"] >= 1
