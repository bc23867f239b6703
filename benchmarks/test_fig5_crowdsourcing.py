"""Benchmark regenerating Fig. 5: crowd-sourced speedups on 83 mobile devices."""

from repro.experiments.fig5_crowdsourcing import format_fig5, run_fig5
from repro.utils.serialization import dump_json


def test_fig5_crowdsourcing(benchmark, scale, kfusion_runner, results_dir, shared_results):
    """Run the tuned vs default configuration on the synthetic 83-device fleet."""
    fig3 = shared_results.get("fig3_odroid")
    tuned = fig3["best_speed_config"] if fig3 else None
    result = benchmark.pedantic(
        lambda: run_fig5(scale, seed=7, tuned_config=tuned, runner=kfusion_runner),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_fig5(result))
    dump_json(result, results_dir / "fig5_crowdsourcing.json")

    stats = result["statistics"]
    assert result["n_devices"] == scale.crowd_devices
    # The paper's claim: every device speeds up, most by at least 2x, with a
    # wide spread up to an order of magnitude.
    assert stats["min"] > 1.0
    assert stats["fraction_at_least_2x"] >= 0.5
    assert stats["max"] > 4.0
    # Zero-shot transfer rests on strongly correlated runtimes across devices.
    assert all(c["spearman"] > 0.5 for c in result["cross_device_correlations"])
