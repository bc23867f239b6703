"""Ablation benchmark: sensitivity of the exploration to the forest size."""

from repro.experiments.ablations import run_forest_size_ablation
from repro.utils.serialization import dump_json
from repro.utils.tables import format_table


def test_ablation_forest_size(benchmark, scale, kfusion_runner, results_dir):
    """Rerun the KFusion exploration with different numbers of trees."""
    ablation_scale = scale.with_overrides(
        n_random_samples=max(scale.n_random_samples // 3, 8),
        max_iterations=2,
        max_samples_per_iteration=max(scale.max_samples_per_iteration // 2, 4),
    )
    result = benchmark.pedantic(
        lambda: run_forest_size_ablation(ablation_scale, forest_sizes=[4, 16, 48], seed=29, runner=kfusion_runner),
        rounds=1,
        iterations=1,
    )
    rows = [
        [r["n_trees"], r["n_evaluations"], r["n_pareto"], f"{r['hypervolume']:.5f}"]
        for r in result["results"]
    ]
    print()
    print(format_table(rows, headers=["trees", "evaluations", "Pareto points", "hypervolume"], title="Forest-size ablation"))
    dump_json(result, results_dir / "ablation_forest_size.json")

    assert len(result["results"]) == 3
    assert all(r["n_pareto"] >= 1 for r in result["results"])
