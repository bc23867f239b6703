"""Benchmark regenerating Fig. 1 (KFusion runtime response surface)."""

from repro.experiments.fig1_response_surface import format_fig1, run_fig1
from repro.utils.serialization import dump_json


def test_fig1_response_surface(benchmark, scale, kfusion_runner, results_dir):
    """Sweep (mu, icp_threshold) with the other parameters at their defaults."""
    result = benchmark.pedantic(
        lambda: run_fig1(scale, runner=kfusion_runner, seed=7),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_fig1(result))
    dump_json(result, results_dir / "fig1_response_surface.json")

    # Fig. 1's claim: the runtime surface is non-trivial (varies and is
    # multi-modal) even in a 2-parameter slice of the space.
    assert result["runtime_spread"] > 1.05
    assert result["n_evaluations"] == len(result["mu_values"]) * len(result["icp_threshold_values"])
