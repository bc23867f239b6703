"""Ablation benchmark: HyperMapper vs random / evolutionary / bandit search."""

from repro.experiments.ablations import format_search_strategy_ablation, run_search_strategy_ablation
from repro.utils.serialization import dump_json


def test_ablation_search_strategies(benchmark, scale, kfusion_runner, results_dir):
    """Equal-budget comparison of search strategies on the KFusion space."""
    # The ablation runs four independent searches, so its per-strategy budget
    # is kept below the main experiments' budget to bound wall-clock time.
    ablation_scale = scale.with_overrides(
        n_random_samples=max(scale.n_random_samples // 3, 8),
        max_iterations=2,
        max_samples_per_iteration=max(scale.max_samples_per_iteration // 2, 4),
    )
    budget = ablation_scale.n_random_samples + ablation_scale.max_iterations * ablation_scale.max_samples_per_iteration
    result = benchmark.pedantic(
        lambda: run_search_strategy_ablation(ablation_scale, budget=budget, seed=23, runner=kfusion_runner),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_search_strategy_ablation(result))
    dump_json(result, results_dir / "ablation_search_strategies.json")

    by_name = {r["strategy"]: r for r in result["results"]}
    assert {"hypermapper", "hypermapper_ucb", "hypermapper_eps", "random", "evolutionary", "bandit"} <= set(by_name)
    # The surrogate-guided search should be at least competitive with random
    # sampling at the same budget (the paper's central claim).
    assert by_name["hypermapper"]["hypervolume"] >= by_name["random"]["hypervolume"] * 0.97
