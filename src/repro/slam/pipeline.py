"""Shared pipeline result containers and per-frame work accounting.

Both SLAM pipelines (:class:`~repro.slam.kfusion.KinectFusion` and
:class:`~repro.slam.elasticfusion.ElasticFusion`) emit a
:class:`PipelineResult` holding the estimated trajectory plus one
:class:`FrameStats` record per frame.  The frame statistics record *logical*
work quantities (pixels processed, ICP iterations executed, voxels integrated,
surfels active, ...) — the translation into per-kernel FLOPs/bytes and then
into per-device milliseconds is the job of :mod:`repro.slambench.workload` and
:mod:`repro.devices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.slam.metrics import ATEResult, absolute_trajectory_error
from repro.slam.trajectory import Trajectory


@dataclass
class FrameStats:
    """Logical per-frame work and tracking diagnostics.

    Attributes
    ----------
    index:
        Frame index.
    tracked:
        Whether ICP tracking ran on this frame.
    tracking_accepted:
        Whether the tracking result passed the failure check (when it did not,
        the pipeline fell back to the motion-model prediction).
    icp_iterations:
        Total ICP (geometric) Gauss-Newton iterations executed.
    rgb_iterations:
        Photometric iterations executed (ElasticFusion only).
    icp_error:
        Final mean squared ICP residual.
    n_pixels:
        Number of pixels processed after the compute-size-ratio resize (at the
        nominal sensor resolution).
    n_tracking_points:
        Number of valid points fed to tracking (at the nominal resolution).
    integrated:
        Whether the map was updated with this frame.
    integration_elements:
        Number of map elements (voxels / surfels) touched by integration, at
        nominal scale.
    raycast_steps:
        Ray-marching steps performed for the model prediction, at nominal
        scale.
    n_surfels:
        Surfel-map size after this frame (ElasticFusion only).
    so3_used, relocalised:
        Whether the SO(3) pre-alignment / relocalisation stages ran.
    extra:
        Free-form extra counters.
    """

    index: int
    tracked: bool = False
    tracking_accepted: bool = True
    icp_iterations: int = 0
    rgb_iterations: int = 0
    icp_error: float = 0.0
    n_pixels: int = 0
    n_tracking_points: int = 0
    integrated: bool = False
    integration_elements: int = 0
    raycast_steps: int = 0
    n_surfels: int = 0
    so3_used: bool = False
    relocalised: bool = False
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Outcome of running a SLAM pipeline over a dataset."""

    estimated: Trajectory
    ground_truth: Trajectory
    frames: List[FrameStats]
    config: Dict[str, Any]
    pipeline: str

    def ate(self, align: bool = False) -> ATEResult:
        """Absolute trajectory error of the run."""
        return absolute_trajectory_error(self.estimated, self.ground_truth, align=align)

    @property
    def n_frames(self) -> int:
        """Number of processed frames."""
        return len(self.frames)

    @property
    def n_tracking_failures(self) -> int:
        """Frames where tracking ran but was rejected."""
        return sum(1 for f in self.frames if f.tracked and not f.tracking_accepted)

    @property
    def n_integrations(self) -> int:
        """Frames that updated the map."""
        return sum(1 for f in self.frames if f.integrated)

    def total(self, attribute: str) -> float:
        """Sum of a numeric :class:`FrameStats` attribute over all frames."""
        return float(sum(getattr(f, attribute) for f in self.frames))

    def mean(self, attribute: str) -> float:
        """Mean of a numeric :class:`FrameStats` attribute over all frames."""
        if not self.frames:
            return 0.0
        return self.total(attribute) / len(self.frames)

    def summary(self) -> Dict[str, float]:
        """Compact run summary (used in example scripts and reports)."""
        ate = self.ate()
        return {
            "n_frames": self.n_frames,
            "mean_ate_m": ate.mean,
            "max_ate_m": ate.max,
            "rmse_ate_m": ate.rmse,
            "tracking_failures": self.n_tracking_failures,
            "integrations": self.n_integrations,
            "mean_icp_iterations": self.mean("icp_iterations"),
        }


__all__ = ["FrameStats", "PipelineResult"]
