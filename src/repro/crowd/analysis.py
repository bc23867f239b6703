"""Analysis of the crowd-sourced results: speedups and zero-shot transfer.

The paper reports speedups between 2x and more than 12x across 83 devices and
cites the strong Pearson/Spearman correlation between per-configuration
runtimes on different machines as the reason why a Pareto front learned on one
device transfers to similar devices.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.crowd.app import CrowdAppRun
from repro.devices.model import DeviceModel
from repro.slambench.runner import SlamBenchRunner


def speedup_statistics(runs: Sequence[CrowdAppRun]) -> Dict[str, float]:
    """Summary statistics of the per-device speedups (the Fig. 5 distribution)."""
    if len(runs) == 0:
        raise ValueError("no crowd runs to analyse")
    speedups = np.array([r.speedup for r in runs], dtype=np.float64)
    return {
        "n_devices": float(len(runs)),
        "min": float(speedups.min()),
        "max": float(speedups.max()),
        "mean": float(speedups.mean()),
        "median": float(np.median(speedups)),
        "p10": float(np.percentile(speedups, 10)),
        "p90": float(np.percentile(speedups, 90)),
        "fraction_at_least_2x": float(np.mean(speedups >= 2.0)),
    }


def speedup_histogram(runs: Sequence[CrowdAppRun], bin_edges: Sequence[float] = (0, 2, 4, 6, 8, 10, 12, 100)) -> List[Tuple[str, int]]:
    """Histogram of speedups using Fig. 5's axis binning."""
    speedups = np.array([r.speedup for r in runs], dtype=np.float64)
    counts, _ = np.histogram(speedups, bins=np.asarray(bin_edges, dtype=np.float64))
    labels = []
    for lo, hi in zip(bin_edges[:-1], bin_edges[1:]):
        labels.append(f"{lo:g}-{hi:g}x" if hi < 100 else f">{lo:g}x")
    return list(zip(labels, counts.tolist()))


def cross_device_correlation(
    runner: SlamBenchRunner,
    configs: Sequence[Mapping[str, object]],
    device_a: DeviceModel,
    device_b: DeviceModel,
) -> Dict[str, float]:
    """Pearson and Spearman correlation of per-configuration runtimes on two devices.

    A high rank correlation is the zero-shot transfer argument of the paper
    (citing Roy et al.): configurations that are fast on one machine tend to be
    fast on another similar machine.
    """
    if len(configs) < 3:
        raise ValueError("need at least three configurations to correlate")
    runtimes_a = []
    runtimes_b = []
    for config in configs:
        record = runner.run_config(config)
        runtimes_a.append(record.metrics_for(device_a)["runtime_s"])
        runtimes_b.append(record.metrics_for(device_b)["runtime_s"])
    a = np.asarray(runtimes_a)
    b = np.asarray(runtimes_b)
    pearson = float(scipy_stats.pearsonr(a, b)[0])
    spearman = float(scipy_stats.spearmanr(a, b)[0])
    return {"pearson": pearson, "spearman": spearman, "n_configs": float(len(configs))}


__all__ = ["speedup_statistics", "speedup_histogram", "cross_device_correlation"]
