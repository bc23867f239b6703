"""Figure 4: ElasticFusion design-space exploration on the GTX 780 Ti desktop.

Reproduces the random-sampling vs active-learning comparison on the second,
"fundamentally different" application, together with the Section IV headline
numbers: the default configuration runs at about 45 FPS, the tuned
configurations improve runtime by about 1.5x while also improving accuracy,
and a separate configuration improves accuracy by about 2x over the default.

Like Fig. 3, the exploration is a declarative scenario executed through the
:class:`~repro.core.study.Study` front door.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

from repro.core.study import Study, StudyResult
from repro.devices.catalog import get_device
from repro.devices.model import DeviceModel
from repro.experiments.common import (
    SMALL,
    ExperimentScale,
    executor_spec,
    history_stats,
    make_runner,
    slambench_evaluator_spec,
)
from repro.slambench.parameters import ACCURACY_LIMIT_M
from repro.slambench.runner import SlamBenchRunner
from repro.slambench.workloads import get_workload
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table


def fig4_scenario(
    platform: str = "gtx-780ti",
    scale: ExperimentScale = SMALL,
    seed: int = 11,
    accuracy_limit_m: float = ACCURACY_LIMIT_M,
    acquisition: Union[str, Mapping, None] = None,
    n_workers: Optional[int] = None,
    overlap_fraction: Optional[float] = None,
) -> Dict[str, object]:
    """The Fig. 4 exploration as a plain scenario dict (JSON-serializable).

    ElasticFusion evaluations are heavier than KFusion ones, so the
    random-sampling budget is scaled the same way the paper scales it
    (2,400 vs 3,000 samples) and the per-iteration cap is halved.
    """
    search: Dict[str, object] = {
        "algorithm": "hypermapper",
        "n_random_samples": max(int(scale.n_random_samples * 0.8), 8),
        "max_iterations": scale.max_iterations,
        "pool_size": scale.pool_size,
        "max_samples_per_iteration": max(scale.max_samples_per_iteration // 2, 4),
    }
    if acquisition is not None:
        search["acquisition"] = acquisition
    return {
        "schema_version": 1,
        "name": f"fig4-elasticfusion-{platform}",
        "evaluator": slambench_evaluator_spec(
            "elasticfusion", platform, scale, dataset_seed=seed, accuracy_limit_m=accuracy_limit_m
        ),
        "search": search,
        "executor": executor_spec(scale, n_workers, overlap_fraction),
        "seed": derive_seed(seed, "fig4", platform),
    }


def run_fig4(
    platform: str = "gtx-780ti",
    scale: ExperimentScale = SMALL,
    seed: int = 11,
    runner: Optional[SlamBenchRunner] = None,
    accuracy_limit_m: float = ACCURACY_LIMIT_M,
    acquisition: Union[str, Mapping, None] = None,
    n_workers: Optional[int] = None,
    overlap_fraction: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    run_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the ElasticFusion DSE and collect the Fig. 4 / Section IV statistics."""
    device: DeviceModel = get_device(platform)
    runner = runner if runner is not None else make_runner("elasticfusion", scale, dataset_seed=seed)
    scenario = fig4_scenario(
        platform, scale, seed, accuracy_limit_m, acquisition, n_workers, overlap_fraction
    )
    study = Study(scenario, runner=runner)
    result: StudyResult = study.run(
        run_dir=run_dir, resume_from=resume_from, checkpoint_path=checkpoint_path
    )

    workload = get_workload("elasticfusion")
    space = workload.space()
    history = result.history
    random_history = history.filter(source="random")
    stats = history_stats(result)

    default_config = workload.default_config()
    default_metrics = runner.evaluate(default_config, device)

    best_speed = result.best_by("runtime_s")
    best_accuracy = result.best_by("mean_ate_m")
    front = result.pareto

    speedup = default_metrics["runtime_s"] / best_speed.metrics["runtime_s"] if best_speed else float("nan")
    accuracy_gain_best_speed = (
        default_metrics["mean_ate_m"] / best_speed.metrics["mean_ate_m"] if best_speed else float("nan")
    )
    accuracy_gain = (
        default_metrics["mean_ate_m"] / best_accuracy.metrics["mean_ate_m"] if best_accuracy else float("nan")
    )
    speedup_best_accuracy = (
        default_metrics["runtime_s"] / best_accuracy.metrics["runtime_s"] if best_accuracy else float("nan")
    )

    return {
        "experiment": "fig4_elasticfusion_dse",
        "platform": device.name,
        "platform_key": platform,
        "scale": scale.name,
        "scenario": result.scenario.to_dict(),
        "space_cardinality": float(space.cardinality),
        "accuracy_limit_m": accuracy_limit_m,
        "n_random_samples": stats["n_random_samples"],
        "n_active_learning_samples": stats["n_active_learning_samples"],
        "n_active_learning_iterations": len(result.iterations),
        "samples_per_iteration": [r.n_new_samples for r in result.iterations],
        "n_valid_random": stats["n_valid_random"],
        "n_valid_active_learning": stats["n_valid_active_learning"],
        "n_pareto_points": len(front),
        "default_metrics": {k: float(v) for k, v in default_metrics.items()},
        "default_fps": float(default_metrics["fps"]),
        "best_speed_config": dict(best_speed.config) if best_speed else None,
        "best_speed_metrics": dict(best_speed.metrics) if best_speed else None,
        "best_speedup_over_default": float(speedup),
        "accuracy_gain_of_best_speed": float(accuracy_gain_best_speed),
        "best_accuracy_config": dict(best_accuracy.config) if best_accuracy else None,
        "best_accuracy_metrics": dict(best_accuracy.metrics) if best_accuracy else None,
        "best_accuracy_gain_over_default": float(accuracy_gain),
        "speedup_of_best_accuracy": float(speedup_best_accuracy),
        "random_front": [
            {"mean_ate_m": float(r.metrics["mean_ate_m"]), "runtime_s": float(r.metrics["runtime_s"])}
            for r in random_history.pareto_records()
        ],
        "active_learning_front": [
            {"mean_ate_m": float(r.metrics["mean_ate_m"]), "runtime_s": float(r.metrics["runtime_s"])}
            for r in front
        ],
        "pareto_records": [
            {"config": dict(r.config), "metrics": dict(r.metrics), "source": r.source} for r in front
        ],
        "iteration_reports": [r.to_dict() for r in result.iterations],
        "n_pipeline_simulations": runner.n_simulations,
        "engine": dict(result.engine_info),
        "run_dir": None if result.run_dir is None else str(result.run_dir),
    }


def format_fig4(result: Dict[str, object]) -> str:
    """Plain-text report mirroring Fig. 4 and the ElasticFusion headline numbers."""
    lines: List[str] = []
    lines.append(f"Fig. 4 — ElasticFusion DSE on {result['platform']} (scale: {result['scale']})")
    lines.append(
        f"  random sampling: {result['n_random_samples']} samples, {result['n_valid_random']} valid"
    )
    lines.append(
        f"  active learning: {result['n_active_learning_samples']} samples over "
        f"{result['n_active_learning_iterations']} iterations, {result['n_valid_active_learning']} valid"
    )
    default = result["default_metrics"]
    lines.append(
        f"  default configuration: {default['runtime_s'] * 1000:.1f} ms/frame "
        f"({result['default_fps']:.1f} FPS), mean ATE {default['mean_ate_m'] * 100:.2f} cm"
    )
    if result["best_speed_metrics"]:
        bs = result["best_speed_metrics"]
        lines.append(
            f"  best speed: {bs['runtime_s'] * 1000:.1f} ms/frame, mean ATE {bs['mean_ate_m'] * 100:.2f} cm "
            f"-> {result['best_speedup_over_default']:.2f}x faster, "
            f"{result['accuracy_gain_of_best_speed']:.2f}x more accurate than default"
        )
    if result["best_accuracy_metrics"]:
        ba = result["best_accuracy_metrics"]
        lines.append(
            f"  best accuracy: mean ATE {ba['mean_ate_m'] * 100:.2f} cm at {ba['runtime_s'] * 1000:.1f} ms/frame "
            f"-> {result['best_accuracy_gain_over_default']:.2f}x more accurate, "
            f"{result['speedup_of_best_accuracy']:.2f}x faster than default"
        )
    front = result["active_learning_front"]
    if front:
        rows = [[f"{p['runtime_s'] * 1000:.1f}", f"{p['mean_ate_m'] * 100:.2f}"] for p in front[:20]]
        lines.append(format_table(rows, headers=["runtime (ms/frame)", "mean ATE (cm)"], title="  Final Pareto front (first 20 points):"))
    return "\n".join(lines)


__all__ = [
    "fig4_scenario",
    "run_fig4",
    "format_fig4",
]
