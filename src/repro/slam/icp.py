"""Iterative closest point (ICP) pose estimation.

:func:`icp_point_to_implicit` is Gauss-Newton alignment of a point cloud to an
implicit surface given by a signed-distance function (the map interface used
by the KinectFusion pipeline; tracking directly against the TSDF is the
approach of Bylow et al. and is equivalent in spirit to KFusion's projective
point-to-plane ICP against the raycast model).  ElasticFusion builds its own
joint geometric/photometric system and shares only :func:`solve_increment`.

Tracking uses the twist parameterization from :mod:`repro.slam.se3` and
supports the ``icp_threshold`` early-termination semantics exposed as an
algorithmic parameter in the design space: iterations stop early once the
error changes by less than the threshold, so large thresholds trade accuracy
for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.slam import se3

# A signed-distance query: world-space points -> (distance, unit gradient).
SdfQuery = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


@dataclass
class ICPResult:
    """Outcome of an ICP alignment."""

    pose: np.ndarray
    iterations: int
    error: float
    converged: bool
    inlier_fraction: float
    error_history: List[float] = field(default_factory=list)

    @property
    def rmse(self) -> float:
        """Root-mean-square residual of the final iteration."""
        return float(np.sqrt(max(self.error, 0.0)))


def _jacobian(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.concatenate([n, np.cross(p, n)], axis=1)`` for ``(k, 3)`` rows.

    The cross product is written out in numpy's order (one rounding per
    product and per difference), into a C-order ``(k, 6)`` array.
    """
    J = np.empty((p.shape[0], 6))
    J[:, :3] = n
    p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2]
    n0, n1, n2 = n[:, 0], n[:, 1], n[:, 2]
    np.subtract(p1 * n2, p2 * n1, out=J[:, 3])
    np.subtract(p2 * n0, p0 * n2, out=J[:, 4])
    np.subtract(p0 * n1, p1 * n0, out=J[:, 5])
    return J


def solve_increment(JtJ: np.ndarray, Jtr: np.ndarray, damping: float = 1e-6) -> np.ndarray:
    """Solve the damped normal equations for the twist increment."""
    A = JtJ + damping * _EYE6
    try:
        return np.linalg.solve(A, -Jtr)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, -Jtr, rcond=None)[0]


def icp_point_to_implicit(
    points_cam: np.ndarray,
    sdf_query: SdfQuery,
    initial_pose: np.ndarray,
    iterations: Sequence[int] = (10,),
    point_subsets: Optional[Sequence[np.ndarray]] = None,
    termination_threshold: float = 1e-5,
    max_correspondence_distance: float = 0.3,
    damping: float = 1e-6,
) -> ICPResult:
    """Align a camera-frame point cloud to an implicit surface.

    Parameters
    ----------
    points_cam:
        ``(N, 3)`` camera-frame points (invalid points should be removed
        beforehand).
    sdf_query:
        Callable returning ``(signed distance, unit gradient)`` for world
        points — the map backend.
    initial_pose:
        Initial camera-to-world estimate.
    iterations:
        Iterations per pyramid level, *coarsest first* (KFusion's
        "pyramid level iterations" parameter).  With ``point_subsets`` given,
        level ``l`` uses ``points_cam[point_subsets[l]]``; otherwise every
        level uses all points.
    termination_threshold:
        Early-termination threshold on the change of the mean squared
        residual between iterations, up or down (the design-space
        ``icp_threshold``): a level stops once ``|previous - current|``
        falls below it.
    max_correspondence_distance:
        Residuals larger than this are treated as outliers and dropped.
    damping:
        Levenberg damping added to the normal equations.

    Returns
    -------
    ICPResult
        Final pose and convergence diagnostics.
    """
    pts = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    T = np.array(initial_pose, dtype=np.float64)
    total_iterations = 0
    error = float("inf")
    inlier_fraction = 0.0
    history: List[float] = []
    if pts.shape[0] < 6:
        return ICPResult(pose=T, iterations=0, error=error, converged=False, inlier_fraction=0.0)

    n_levels = len(iterations)
    for level in range(n_levels):
        level_iters = int(iterations[level])
        if level_iters <= 0:
            continue
        if point_subsets is not None:
            idx = np.asarray(point_subsets[level])
            level_pts = pts[idx] if idx.size > 0 else pts
        else:
            level_pts = pts
        if level_pts.shape[0] < 6:
            continue
        prev_error = None
        for _ in range(level_iters):
            p_world = se3.transform_points(T, level_pts)
            dist, grad = sdf_query(p_world)
            dist = np.asarray(dist, dtype=np.float64).reshape(-1)
            grad = np.asarray(grad, dtype=np.float64).reshape(-1, 3)
            # Holes (inf) and NaN fail the comparison, so it is the finite test
            # too.  ``nonzero`` of the 1-D mask is ``np.flatnonzero`` without
            # its Python wrapper.
            inliers = (np.abs(dist) < max_correspondence_distance).nonzero()[0]
            k = inliers.size
            inlier_fraction = k / dist.size if dist.size else 0.0
            if k < 6:
                break
            r = dist.take(inliers)
            n = grad.take(inliers, axis=0)
            pw = p_world.take(inliers, axis=0)
            J = _jacobian(pw, n)
            JtJ = J.T @ J
            Jtr = J.T @ r
            delta = solve_increment(JtJ, Jtr, damping=damping)
            T = se3.exp_se3(delta) @ T
            total_iterations += 1
            # np.mean(r * r): numpy's sum, divided once by the count.
            error = float(np.add.reduce(r * r)) / k
            history.append(error)
            if prev_error is not None and abs(prev_error - error) < termination_threshold:
                prev_error = error
                break
            prev_error = error
    converged = np.isfinite(error) and error < max_correspondence_distance**2
    return ICPResult(
        pose=T,
        iterations=total_iterations,
        error=error,
        converged=bool(converged),
        inlier_fraction=inlier_fraction,
        error_history=history,
    )


__all__ = [
    "ICPResult",
    "SdfQuery",
    "solve_increment",
    "icp_point_to_implicit",
]
