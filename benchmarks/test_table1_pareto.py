"""Benchmark regenerating Table I: ElasticFusion Pareto points and parameters."""

from repro.experiments.table1_pareto import format_table1, run_table1
from repro.utils.serialization import dump_json


def test_table1_elasticfusion_pareto(benchmark, scale, elasticfusion_runner, results_dir, shared_results):
    """Derive the Table I rows from the Fig. 4 exploration (reused when available)."""
    fig4 = shared_results.get("fig4")
    result = benchmark.pedantic(
        lambda: run_table1(scale=scale, seed=11, fig4_result=fig4),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table1(result))
    dump_json(result, results_dir / "table1_pareto.json")

    rows = result["rows"]
    assert rows[0]["label"] == "Default"
    # Default row parameter columns must match the paper's default row.
    assert rows[0]["icp_rgb_weight"] == 10.0
    assert rows[0]["depth_cutoff"] == 3.0
    assert rows[0]["confidence_threshold"] == 10.0
    assert rows[0]["SO3"] == 1 and rows[0]["Reloc"] == 1 and rows[0]["Close-Loops"] == 0
    assert len(rows) >= 2, "the exploration must contribute at least one Pareto row"
