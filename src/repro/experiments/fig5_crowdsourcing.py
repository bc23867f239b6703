"""Figure 5: crowd-sourced speedups of the tuned configuration on 83 devices.

The best-runtime configuration from the ODROID-XU3 Pareto front and the
default configuration are run on every device of the (synthetic) mobile fleet;
the figure is the distribution of per-device speedups, which the paper reports
to range from 2x to more than 12x.  The harness also reports the cross-device
runtime correlation (Pearson/Spearman) underpinning the zero-shot transfer
argument.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.crowd.analysis import cross_device_correlation, speedup_histogram, speedup_statistics
from repro.crowd.app import run_crowd_experiment, tuned_config_from_run
from repro.crowd.database import CrowdDatabase
from repro.devices.catalog import ODROID_XU3
from repro.devices.mobile import make_mobile_fleet
from repro.experiments.common import SMALL, ExperimentScale, make_runner
from repro.experiments.fig3_kfusion_dse import run_fig3
from repro.slambench.runner import SlamBenchRunner
from repro.slambench.workloads import get_workload
from repro.utils.rng import derive_seed
from repro.utils.tables import format_table


def run_fig5(
    scale: ExperimentScale = SMALL,
    seed: int = 7,
    tuned_config: Optional[Mapping[str, object]] = None,
    runner: Optional[SlamBenchRunner] = None,
    n_correlation_configs: int = 24,
    n_workers: Optional[int] = None,
    tuned_run_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the crowd-sourcing experiment.

    ``tuned_config`` is normally the best-runtime configuration of the
    ODROID-XU3 Pareto front (Fig. 3); ``tuned_run_dir`` reads it from a
    persisted Fig. 3 study run directory (the artifact a crowd frontend
    would consume); when both are omitted, a reduced scenario-driven Fig. 3
    run is performed first to obtain it.  ``n_workers`` (default: the
    scale's ``n_eval_workers``) runs fleet devices concurrently; results
    are order-deterministic either way.
    """
    workload = get_workload("kfusion")
    runner = runner if runner is not None else make_runner("kfusion", scale, dataset_seed=seed)
    if tuned_config is None and tuned_run_dir is not None:
        tuned_config = tuned_config_from_run(tuned_run_dir)
    if tuned_config is None:
        fig3 = run_fig3(platform="odroid-xu3", scale=scale, seed=seed, runner=runner)
        tuned_config = fig3["best_speed_config"]
        if tuned_config is None:
            raise RuntimeError("the Fig. 3 exploration produced no valid configuration")

    default_config = dict(workload.default_config())
    fleet = make_mobile_fleet(n_devices=scale.crowd_devices, seed=derive_seed(seed, "fleet"))
    database = CrowdDatabase()
    runs = run_crowd_experiment(
        runner,
        fleet,
        default_config,
        dict(tuned_config),
        n_frames=100,
        database=database,
        n_workers=scale.n_eval_workers if n_workers is None else int(n_workers),
    )

    stats = speedup_statistics(runs)
    histogram = speedup_histogram(runs)

    # Zero-shot transfer: rank correlation of per-configuration runtimes
    # between the ODROID-XU3 and a handful of fleet devices.
    space = workload.space()
    probe_configs = [dict(c) for c in space.sample(n_correlation_configs, rng=derive_seed(seed, "probe"))]
    probe_configs.append(default_config)
    correlations = []
    for device in fleet[:: max(len(fleet) // 5, 1)][:5]:
        corr = cross_device_correlation(runner, probe_configs, ODROID_XU3, device)
        correlations.append({"device": device.name, **corr})

    return {
        "experiment": "fig5_crowdsourcing",
        "scale": scale.name,
        "n_devices": len(runs),
        "tuned_config": dict(tuned_config),
        "speedups": [float(r.speedup) for r in runs],
        "device_names": [r.device.name for r in runs],
        "statistics": stats,
        "histogram": histogram,
        "cross_device_correlations": correlations,
        "n_database_records": len(database),
    }


def format_fig5(result: Dict[str, object]) -> str:
    """Plain-text rendering of the Fig. 5 speedup distribution."""
    lines: List[str] = []
    stats = result["statistics"]
    lines.append(
        f"Fig. 5 — crowd-sourced speedups of the ODROID-tuned configuration over the default "
        f"on {result['n_devices']} devices (scale: {result['scale']})"
    )
    lines.append(
        f"  speedup range {stats['min']:.2f}x .. {stats['max']:.2f}x, "
        f"median {stats['median']:.2f}x, {stats['fraction_at_least_2x'] * 100:.0f}% of devices at >= 2x "
        f"(paper: 2x .. >12x)"
    )
    rows = [[label, count] for label, count in result["histogram"]]
    lines.append(format_table(rows, headers=["speedup bin", "devices"], title="  Speedup histogram:"))
    corr_rows = [[c["device"], f"{c['pearson']:.3f}", f"{c['spearman']:.3f}"] for c in result["cross_device_correlations"]]
    lines.append(
        format_table(
            corr_rows,
            headers=["device", "Pearson", "Spearman"],
            title="  Cross-device runtime correlation vs ODROID-XU3 (zero-shot transfer):",
        )
    )
    return "\n".join(lines)


__all__ = ["run_fig5", "format_fig5"]
