"""The simulated SLAMBench Android app run.

Each "installation" runs the default KFusion configuration and the tuned
(Pareto-best-runtime) configuration for 100 frames on its device and uploads
both timings to the :class:`~repro.crowd.database.CrowdDatabase`.

Like the search engine's :class:`~repro.core.executor.EvaluationExecutor`,
the fleet fan-out is batched and optionally concurrent (``n_workers``),
running through the scheduler's deterministic fan-out primitive
(:func:`~repro.core.scheduler.map_ordered`): devices run independently and
their uploads land in a deterministic order regardless of which device
finishes first — exactly the property the real crowd experiment relies on
when 83 phones report back asynchronously.  ``map_ordered`` drains every
device before reporting failures (one crashed phone does not discard the
other 82 results); a raised :class:`~repro.core.scheduler.MapOrderedError`
aggregates all per-device errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.scheduler import map_ordered
from repro.crowd.database import CrowdDatabase, CrowdRecord
from repro.devices.model import DeviceModel
from repro.slambench.runner import SlamBenchRunner, SlamRunRecord


@dataclass
class CrowdAppRun:
    """Result of one device running the app (both configurations)."""

    device: DeviceModel
    default_runtime_s: float
    tuned_runtime_s: float
    n_frames: int

    @property
    def speedup(self) -> float:
        """Speedup of the tuned configuration over the default on this device."""
        return self.default_runtime_s / self.tuned_runtime_s if self.tuned_runtime_s > 0 else float("inf")


def _device_app_run(
    device: DeviceModel,
    default_record: SlamRunRecord,
    tuned_record: SlamRunRecord,
    extra_records: Mapping[str, SlamRunRecord],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Dict[str, float]]]:
    """One installation's benchmark: all configurations on one device."""
    return (
        default_record.metrics_for(device),
        tuned_record.metrics_for(device),
        {label: record.metrics_for(device) for label, record in extra_records.items()},
    )


def run_crowd_experiment(
    runner: SlamBenchRunner,
    devices: Sequence[DeviceModel],
    default_config: Mapping[str, object],
    tuned_config: Mapping[str, object],
    n_frames: int = 100,
    database: Optional[CrowdDatabase] = None,
    extra_configs: Optional[Mapping[str, Mapping[str, object]]] = None,
    n_workers: int = 1,
) -> List[CrowdAppRun]:
    """Run the app on every device of the fleet and populate the database.

    The pipeline simulation (accuracy / per-frame work) is shared across
    devices; only the device runtime model differs, exactly as in the real
    experiment where every phone runs the same two configurations.

    Parameters
    ----------
    runner:
        A KFusion :class:`~repro.slambench.runner.SlamBenchRunner`.
    devices:
        The fleet (83 devices in the paper).
    default_config, tuned_config:
        The two configurations every device benchmarks.
    n_frames:
        Frames per app run (the app runs 100 "for practical reasons").
    database:
        Optional database to upload results into.
    extra_configs:
        Additional labelled configurations to benchmark on every device.
    n_workers:
        Devices running concurrently.  Results and uploads always come back
        in fleet order, so the database content is identical to a serial run.
    """
    default_record = runner.run_config(default_config)
    tuned_record = runner.run_config(tuned_config)
    extra_records = {label: runner.run_config(cfg) for label, cfg in (extra_configs or {}).items()}
    if database is None:
        # Extra-config metrics are only ever read by the upload branch.
        extra_records = {}

    per_device = map_ordered(
        lambda d: _device_app_run(d, default_record, tuned_record, extra_records),
        devices,
        max_concurrent=n_workers,
    )

    runs: List[CrowdAppRun] = []
    for device, (default_metrics, tuned_metrics, extra_metrics) in zip(devices, per_device):
        run = CrowdAppRun(
            device=device,
            default_runtime_s=default_metrics["runtime_s"],
            tuned_runtime_s=tuned_metrics["runtime_s"],
            n_frames=n_frames,
        )
        runs.append(run)
        if database is not None:
            database.upload(
                CrowdRecord(
                    device_name=device.name,
                    device_category=device.category,
                    config_label="default",
                    runtime_s=default_metrics["runtime_s"],
                    fps=default_metrics["fps"],
                    n_frames=n_frames,
                )
            )
            database.upload(
                CrowdRecord(
                    device_name=device.name,
                    device_category=device.category,
                    config_label="pareto-best",
                    runtime_s=tuned_metrics["runtime_s"],
                    fps=tuned_metrics["fps"],
                    n_frames=n_frames,
                )
            )
            for label, metrics in extra_metrics.items():
                database.upload(
                    CrowdRecord(
                        device_name=device.name,
                        device_category=device.category,
                        config_label=label,
                        runtime_s=metrics["runtime_s"],
                        fps=metrics["fps"],
                        n_frames=n_frames,
                    )
                )
    return runs


def tuned_config_from_run(
    run_dir: Union[str, Path], objective: str = "runtime_s"
) -> Dict[str, object]:
    """The crowd app's tuned configuration, read from a persisted study run.

    The fleet consumes the versioned run-directory artifact a Fig. 3 study
    writes (``python -m repro run`` / :meth:`repro.core.study.Study.run`)
    instead of a hand-wired optimizer result: the Pareto record optimizing
    ``objective`` (per-frame runtime by default) becomes the configuration
    every device benchmarks against the default.
    """
    from repro.core.study import StudyResult

    result = StudyResult.load(run_dir)
    best = result.best_by(objective)
    if best is None:
        raise RuntimeError(
            f"study run {run_dir!s} has no feasible Pareto point to deploy to the fleet"
        )
    return dict(best.config)


__all__ = ["CrowdAppRun", "run_crowd_experiment", "tuned_config_from_run"]
