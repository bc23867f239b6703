"""Trajectory accuracy metrics: absolute trajectory error (ATE) and RPE.

SLAMBench reports the absolute trajectory error, "the mean difference between
the real trajectory and the estimated trajectory of a camera".  The paper uses
the *maximum* ATE with a 5 cm validity limit for the KFusion experiments
(Fig. 3) and the mean ATE for the ElasticFusion Pareto table (Table I); both
are provided here, together with the relative pose error for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.slam import se3
from repro.slam.trajectory import Trajectory


@dataclass(frozen=True)
class ATEResult:
    """Absolute trajectory error statistics (all in metres)."""

    mean: float
    max: float
    rmse: float
    median: float
    per_frame: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_frame", np.asarray(self.per_frame, dtype=np.float64))

    @property
    def n_frames(self) -> int:
        """Number of frames compared."""
        return int(self.per_frame.size)

    def to_dict(self) -> dict:
        """Scalar statistics as a plain dictionary."""
        return {
            "mean_ate_m": self.mean,
            "max_ate_m": self.max,
            "rmse_ate_m": self.rmse,
            "median_ate_m": self.median,
        }


def _positions(trajectory: Trajectory) -> np.ndarray:
    return trajectory.positions()


def umeyama_alignment(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares rigid alignment (no scale) of ``source`` onto ``target``.

    Returns the 4x4 transform ``T`` minimizing ``|| T(source) - target ||``.
    """
    src = np.asarray(source, dtype=np.float64)
    dst = np.asarray(target, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("source and target must both have shape (n, 3)")
    if src.shape[0] < 3:
        return np.eye(4)
    mu_s = src.mean(axis=0)
    mu_t = dst.mean(axis=0)
    cov = (dst - mu_t).T @ (src - mu_s) / src.shape[0]
    U, _, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U @ Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    t = mu_t - R @ mu_s
    return se3.make_pose(R, t)


def absolute_trajectory_error(
    estimated: Trajectory,
    ground_truth: Trajectory,
    align: bool = False,
) -> ATEResult:
    """Absolute trajectory error between an estimated and a reference trajectory.

    Parameters
    ----------
    estimated, ground_truth:
        Trajectories of equal length (extra frames in either are ignored).
    align:
        If true, rigidly align the estimated trajectory to the ground truth
        first (Horn/Umeyama); SLAMBench does not align, both trajectories
        start from the same initial pose, so the default is ``False``.
    """
    n = min(len(estimated), len(ground_truth))
    if n == 0:
        raise ValueError("cannot compute ATE of empty trajectories")
    est = _positions(Trajectory(estimated.poses[:n]))
    gt = _positions(Trajectory(ground_truth.poses[:n]))
    if align:
        T = umeyama_alignment(est, gt)
        est = se3.transform_points(T, est)
    err = np.linalg.norm(est - gt, axis=1)
    return ATEResult(
        mean=float(err.mean()),
        max=float(err.max()),
        rmse=float(np.sqrt(np.mean(err**2))),
        median=float(np.median(err)),
        per_frame=err,
    )


def relative_pose_error(
    estimated: Trajectory,
    ground_truth: Trajectory,
    delta: int = 1,
) -> Tuple[float, float]:
    """Mean relative translational / rotational error over ``delta``-frame steps.

    Returns ``(mean translational error in metres, mean rotational error in
    radians)``.
    """
    n = min(len(estimated), len(ground_truth))
    if n <= delta:
        raise ValueError("trajectories too short for the requested delta")
    t_errors = []
    r_errors = []
    for i in range(n - delta):
        rel_est = se3.relative_pose(estimated[i], estimated[i + delta])
        rel_gt = se3.relative_pose(ground_truth[i], ground_truth[i + delta])
        err = se3.relative_pose(rel_gt, rel_est)
        t_errors.append(np.linalg.norm(err[:3, 3]))
        r_errors.append(se3.rotation_angle(err[:3, :3]))
    return float(np.mean(t_errors)), float(np.mean(r_errors))


__all__ = ["ATEResult", "umeyama_alignment", "absolute_trajectory_error", "relative_pose_error"]
