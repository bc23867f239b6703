"""SLAMBench-style runner: evaluate a configuration -> (accuracy, runtime).

The runner owns a synthetic dataset, runs the requested pipeline on it for a
given algorithmic configuration and combines the trajectory-error metric with
the device runtime model.  Pipeline runs are cached by configuration so that
evaluating the same configuration on several devices (e.g. ODROID-XU3 and
ASUS T200TA in Fig. 3, or the 83 crowd-sourced devices in Fig. 5) only costs
one simulation — accuracy is device-independent, runtime is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.evaluator import FunctionEvaluator
from repro.core.objectives import ObjectiveSet
from repro.core.space import Configuration
from repro.devices.model import DeviceModel
from repro.slam.dataset import SyntheticRGBDDataset, make_icl_nuim_like_dataset
from repro.slam.elasticfusion import ElasticFusion, ElasticFusionConfig
from repro.slam.kfusion import KFusionConfig, KinectFusion
from repro.slam.metrics import ATEResult
from repro.slam.pipeline import FrameStats, PipelineResult
from repro.slambench.workload import sequence_runtime
from repro.utils.rng import derive_seed


@dataclass
class SlamRunRecord:
    """Cached outcome of one pipeline simulation (device-independent part)."""

    config: Dict[str, object]
    frames: List[FrameStats]
    ate: ATEResult
    pipeline: str
    n_tracking_failures: int

    def metrics_for(self, device: DeviceModel) -> Dict[str, float]:
        """Full metric dictionary (accuracy + runtime on ``device``)."""
        runtime = sequence_runtime(self.frames, self.config, device, self.pipeline)
        metrics: Dict[str, float] = {
            "mean_ate_m": self.ate.mean,
            "max_ate_m": self.ate.max,
            "rmse_ate_m": self.ate.rmse,
            "tracking_failures": float(self.n_tracking_failures),
        }
        metrics.update(runtime)
        return metrics


class SlamBenchRunner:
    """Runs SLAM pipelines over the synthetic sequence and scores configurations.

    Parameters
    ----------
    pipeline:
        ``"kfusion"`` or ``"elasticfusion"``.
    n_frames, width, height:
        Simulation scale (the reduced-scale defaults keep one configuration
        evaluation in the hundreds of milliseconds; the paper-scale sequence is
        400 frames at 640x480 on real hardware).
    dataset_seed:
        Seed of the synthetic dataset (noise streams, hand-shake jitter).
    pipeline_seed:
        Seed of the pipeline-internal error fields.
    dataset:
        Optionally inject a pre-built dataset (shared across runners).
    """

    def __init__(
        self,
        pipeline: str = "kfusion",
        n_frames: int = 60,
        width: int = 80,
        height: int = 60,
        dataset_seed: int = 0,
        pipeline_seed: int = 0,
        dataset: Optional[SyntheticRGBDDataset] = None,
        elasticfusion_kwargs: Optional[Mapping[str, object]] = None,
    ) -> None:
        if pipeline not in ("kfusion", "elasticfusion"):
            raise ValueError("pipeline must be 'kfusion' or 'elasticfusion'")
        self.pipeline = pipeline
        self.n_frames = int(n_frames)
        self.dataset = dataset if dataset is not None else make_icl_nuim_like_dataset(
            n_frames=n_frames, width=width, height=height, seed=dataset_seed
        )
        self.pipeline_seed = int(pipeline_seed)
        self.elasticfusion_kwargs = dict(elasticfusion_kwargs or {})
        self._cache: Dict[Tuple, SlamRunRecord] = {}

    # -- pipeline execution -----------------------------------------------------------
    @staticmethod
    def _cache_key(config: Mapping[str, object]) -> Tuple:
        return tuple(sorted((str(k), str(v)) for k, v in dict(config).items()))

    @property
    def n_simulations(self) -> int:
        """Number of distinct pipeline simulations executed so far."""
        return len(self._cache)

    def run_config(self, config: Mapping[str, object]) -> SlamRunRecord:
        """Run (or fetch from cache) the pipeline under ``config``."""
        key = self._cache_key(config)
        if key in self._cache:
            return self._cache[key]
        config_dict = dict(config)
        if self.pipeline == "kfusion":
            kf_config = KFusionConfig.from_mapping(config_dict)
            pipe = KinectFusion(kf_config, map_backend="analytic", seed=self.pipeline_seed)
            result: PipelineResult = pipe.run(self.dataset, n_frames=self.n_frames)
        else:
            ef_config = ElasticFusionConfig.from_mapping(config_dict)
            pipe = ElasticFusion(ef_config, seed=self.pipeline_seed, **self.elasticfusion_kwargs)
            result = pipe.run(self.dataset, n_frames=self.n_frames)
        ate = result.ate()
        record = SlamRunRecord(
            config=config_dict,
            frames=result.frames,
            ate=ate,
            pipeline=self.pipeline,
            n_tracking_failures=result.n_tracking_failures,
        )
        self._cache[key] = record
        return record

    # -- evaluation --------------------------------------------------------------------
    def evaluate(self, config: Mapping[str, object], device: DeviceModel) -> Dict[str, float]:
        """Evaluate one configuration on one device (accuracy + runtime)."""
        return self.run_config(config).metrics_for(device)

    def evaluation_function(self, device: DeviceModel) -> "BoundEvaluation":
        """A ``config -> metrics`` callable bound to ``device`` (for HyperMapper)."""
        return BoundEvaluation(self, device)

    def make_evaluator(self, device: DeviceModel, objectives: ObjectiveSet, max_evaluations: Optional[int] = None) -> FunctionEvaluator:
        """A budgeted :class:`FunctionEvaluator` bound to ``device``."""
        return FunctionEvaluator(self.evaluation_function(device), objectives, max_evaluations=max_evaluations)


class BoundEvaluation:
    """``config -> metrics`` callable binding a runner to a device.

    Socket workers build their own runner from the evaluator spec and keep
    it, with its rendered dataset and simulation cache, across tasks; that
    is fine because accuracy/runtime are deterministic in the configuration
    and seeds.
    """

    def __init__(self, runner: SlamBenchRunner, device: DeviceModel) -> None:
        self.runner = runner
        self.device = device

    def __call__(self, config: Configuration) -> Dict[str, float]:
        return self.runner.evaluate(config, self.device)


__all__ = ["SlamRunRecord", "SlamBenchRunner", "BoundEvaluation"]
