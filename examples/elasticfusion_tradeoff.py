#!/usr/bin/env python3
"""ElasticFusion performance/accuracy trade-off on a desktop GPU (Table I).

Explores the ElasticFusion design space (ICP/RGB weight, depth cut-off,
confidence threshold plus five boolean flags) on the simulated GTX 780 Ti and
prints a Table-I-style summary: the default row, the best-speed row and the
best-accuracy row with their parameter values.

The whole exploration is described by the shipped scenario file
``examples/scenarios/elasticfusion.json`` — the same file runs unchanged via
``python -m repro run examples/scenarios/elasticfusion.json``.

Run with:  python examples/elasticfusion_tradeoff.py
"""

import os

from repro.core.study import Study
from repro.devices.catalog import NVIDIA_GTX_780TI
from repro.slambench.parameters import table1_flag_columns
from repro.slambench.workloads import get_workload
from repro.utils.tables import format_table

SCENARIO = os.path.join(os.path.dirname(__file__), "scenarios", "elasticfusion.json")


def main() -> None:
    # Build the runner through the workload registry (same scale as the
    # scenario's evaluator section) so the default-configuration baseline
    # reuses the study's simulation cache.
    workload = get_workload("elasticfusion")
    runner = workload.make_runner(n_frames=25, width=56, height=42, dataset_seed=2)

    default = workload.default_config()
    default_metrics = runner.evaluate(default, NVIDIA_GTX_780TI)

    result = Study(SCENARIO, runner=runner).run()

    def row(label, config, metrics):
        flags = table1_flag_columns(dict(config))
        return [
            label,
            f"{metrics['mean_ate_m']:.4f}",
            f"{metrics['runtime_s'] * 1000:.1f}",
            f"{config['icp_rgb_weight']:g}",
            f"{config['depth_cutoff']:g}",
            f"{config['confidence_threshold']:g}",
            flags["SO3"],
            flags["Close-Loops"],
            flags["Reloc"],
            flags["Fast-Odom"],
            flags["FTF RGB"],
        ]

    rows = [row("Default", default, default_metrics)]
    best_speed = result.best_by("runtime_s")
    best_accuracy = result.best_by("mean_ate_m")
    if best_speed is not None:
        rows.append(row("Best speed", best_speed.config, best_speed.metrics))
    if best_accuracy is not None and best_accuracy is not best_speed:
        rows.append(row("Best accuracy", best_accuracy.config, best_accuracy.metrics))

    print(
        format_table(
            rows,
            headers=["", "Error (m)", "Runtime (ms)", "ICP", "Depth", "Conf", "SO3", "Close-Loops", "Reloc", "Fast-Odom", "FTF RGB"],
            title="ElasticFusion Pareto points (Table I style)",
        )
    )
    if best_speed is not None:
        print(
            f"\nbest speed: {default_metrics['runtime_s'] / best_speed.metrics['runtime_s']:.2f}x faster "
            f"and {default_metrics['mean_ate_m'] / best_speed.metrics['mean_ate_m']:.2f}x more accurate than the default"
        )
    if best_accuracy is not None:
        print(
            f"best accuracy: {default_metrics['mean_ate_m'] / best_accuracy.metrics['mean_ate_m']:.2f}x more accurate than the default"
        )


if __name__ == "__main__":
    main()
