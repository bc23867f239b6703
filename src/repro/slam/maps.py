"""Map backends for the KinectFusion pipeline.

Two backends implement the same interface:

* :class:`TSDFMap` wraps the dense :class:`~repro.slam.tsdf.TSDFVolume` — this
  is the faithful KinectFusion map.  Only tests select it
  (``KinectFusion(map_backend="tsdf")``).
* :class:`AnalyticSDFMap` is the reduced-fidelity backend used for
  design-space-exploration-scale experiments.  Instead of fusing depth into a
  voxel grid it tracks against the known analytic scene SDF, degraded by a
  model of the reconstruction error a real TSDF of the configured resolution,
  truncation distance µ and integration schedule would exhibit (quantization
  noise, µ-induced smearing/holes, staleness between integrations).  A full
  dense evaluation of thousands of configurations over a video sequence is
  infeasible in pure Python — exactly the cost argument that motivates
  HyperMapper in the first place — so the analytic backend models the
  parameter→accuracy/runtime relationships at a tiny fraction of the cost.
  It is the backend the slambench evaluator, and so every design-space
  exploration, runs.  No test compares the two backends: the TSDF one is
  checked only for running and for a bounded trajectory error on a few
  frames.

A query of a few hundred points costs more in numpy's per-call overhead
than in arithmetic, so the hole threshold is :func:`linear_quantile` (one
partition of the field, then numpy's own interpolation in Python floats)
and the 4-wide field mean is ``np.add.reduce`` divided by 4.  Both give
the bits of ``np.quantile`` and ``np.mean``; ``tests/oracles.py`` keeps
the numpy calls and ``tests/test_slam_components.py`` compares them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.slam.camera import CameraIntrinsics
from repro.slam.scene import Scene
from repro.slam.tsdf import TSDFVolume
from repro.utils.rng import as_generator, derive_seed


def linear_quantile(a: np.ndarray, q: float) -> float:
    """``np.quantile(a, q)`` of a non-empty 1-D float64 array, bit for bit.

    ``q`` is a Python float in ``[0, 1]``.  NumPy's default (``"linear"``)
    method, written out: the virtual index ``(n - 1) * q``, one partition
    of a copy at numpy's own index set (so ties between ``-0.0`` and
    ``0.0``, and which NaN comes last, resolve as there), NaN when the
    largest element is NaN, and otherwise numpy's ``_lerp`` of the two
    neighbours, which interpolates from the upper one once ``t >= 0.5``.
    At or past the last index both neighbours are the last element and
    ``t`` is ``index + 1``, as in numpy.  On a few hundred points this
    takes about a ninth of the time of ``np.quantile``, whose Python
    wrappers cost more than the partition.
    """
    n = a.shape[0]
    index = (n - 1) * q
    if index >= n - 1:
        lo = hi = -1
    else:
        lo = math.floor(index)
        hi = lo + 1
    part = a.flatten()
    part.partition(sorted({0, -1, lo, hi}))
    last = float(part[-1])
    if math.isnan(last):
        return last
    t = index - lo
    below, above = float(part[lo]), float(part[hi])
    diff = above - below
    if t >= 0.5:
        return above - diff * (1.0 - t)
    return below + diff * t


class MapBackend(ABC):
    """Interface shared by KinectFusion map backends."""

    @abstractmethod
    def integrate(self, depth: np.ndarray, camera: CameraIntrinsics, pose: np.ndarray, frame_index: int) -> int:
        """Fuse a depth frame; returns the number of map elements updated."""

    @abstractmethod
    def sdf_query(self, points_world: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Signed distance (metres) and unit gradient for ICP tracking."""

    @abstractmethod
    def notify_motion(self, translation: float, rotation: float) -> None:
        """Inform the map how far the camera moved since the last frame."""

    @property
    @abstractmethod
    def has_content(self) -> bool:
        """Whether at least one frame has been integrated."""


class TSDFMap(MapBackend):
    """Dense voxel-grid backend (faithful KinectFusion map)."""

    def __init__(self, resolution: int, size_m: float, mu: float, origin: Optional[np.ndarray] = None) -> None:
        self.volume = TSDFVolume(resolution=resolution, size_m=size_m, mu=mu, origin=origin)
        self._n_integrations = 0

    def integrate(self, depth: np.ndarray, camera: CameraIntrinsics, pose: np.ndarray, frame_index: int) -> int:
        updated = self.volume.integrate(depth, camera, pose)
        self._n_integrations += 1
        return updated

    def sdf_query(self, points_world: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.volume.sample_with_gradient(points_world)

    def notify_motion(self, translation: float, rotation: float) -> None:
        # The dense volume needs no motion bookkeeping.
        return None

    @property
    def has_content(self) -> bool:
        return self._n_integrations > 0


class AnalyticSDFMap(MapBackend):
    """Reduced-fidelity map: analytic scene SDF + reconstruction-error model.

    Error model components (all in metres, derived from the configuration):

    * ``quantization_sigma`` — a TSDF of voxel size ``v`` localizes the surface
      to roughly ``v / 4`` with trilinear interpolation.
    * ``smearing_sigma`` — a truncation band much wider than the voxel size
      smears thin structures; grows once µ exceeds ~4 voxels.
    * ``hole_fraction`` — a truncation band narrower than ~1.5 voxels (or than
      the sensor noise) leaves unobserved holes; affected query points return
      no surface and are dropped by the ICP outlier gate.
    * staleness — between integrations the newly seen parts of the scene are
      missing from the map; the effective error and hole fraction grow with the
      camera motion accumulated since the last integration.

    The spatial error is realized as a smooth pseudo-random bias field (sum of
    3-D sinusoids) so that consecutive frames see *correlated* (drift-like)
    errors rather than white noise, as a real reconstruction would.
    """

    def __init__(
        self,
        scene: Scene,
        resolution: int,
        size_m: float,
        mu: float,
        sensor_sigma: float = 0.004,
        seed: int = 0,
        n_waves: int = 8,
    ) -> None:
        if resolution < 8:
            raise ValueError("resolution must be at least 8")
        if size_m <= 0 or mu <= 0:
            raise ValueError("size_m and mu must be positive")
        self.scene = scene
        self.resolution = int(resolution)
        self.size_m = float(size_m)
        self.mu = float(mu)
        self.voxel_size = self.size_m / self.resolution
        self.sensor_sigma = float(sensor_sigma)
        self._n_integrations = 0
        self._motion_since_integration = 0.0
        self._rotation_since_integration = 0.0
        rng = as_generator(derive_seed(seed, "analytic-map"))
        # Smooth unit-variance bias field: sum of random 3-D sinusoids.
        self._wave_freq = rng.uniform(1.0, 4.0, size=(n_waves, 3)) * rng.choice([-1.0, 1.0], size=(n_waves, 3))
        self._wave_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_waves)
        self._wave_amp = rng.uniform(0.5, 1.0, size=n_waves)
        self._wave_amp /= np.sqrt(0.5 * np.sum(self._wave_amp**2))
        # Hole pattern field (independent of the bias field).
        self._hole_freq = rng.uniform(2.0, 6.0, size=(4, 3))
        self._hole_phase = rng.uniform(0.0, 2.0 * np.pi, size=4)

    # -- error model -------------------------------------------------------------
    # Python floats throughout: ``math.sqrt`` and ``min(max(x, lo), hi)`` give
    # the bits of ``np.sqrt`` and ``np.clip`` on a scalar (NaN and -0.0
    # included) without numpy's per-call cost.
    @property
    def quantization_sigma(self) -> float:
        """Surface localization error induced by voxel quantization."""
        return 0.25 * self.voxel_size

    @property
    def smearing_sigma(self) -> float:
        """Error induced by an overly wide truncation band."""
        excess = max(self.mu - 4.0 * self.voxel_size, 0.0)
        return 0.05 * excess

    @property
    def base_hole_fraction(self) -> float:
        """Fraction of surface missing because the truncation band is too narrow."""
        narrow_voxel = max(1.5 * self.voxel_size - self.mu, 0.0) / max(1.5 * self.voxel_size, 1e-9)
        narrow_noise = max(3.0 * self.sensor_sigma - self.mu, 0.0) / max(3.0 * self.sensor_sigma, 1e-9)
        return min(max(0.6 * narrow_voxel + 0.5 * narrow_noise, 0.0), 0.85)

    @property
    def staleness_penalty(self) -> float:
        """Extra error factor from camera motion since the last integration."""
        return float(min(0.6 * self._motion_since_integration + 0.3 * self._rotation_since_integration, 1.5))

    @property
    def effective_sigma(self) -> float:
        """Total standard deviation of the map surface error (metres)."""
        base = math.sqrt(self.quantization_sigma**2 + self.smearing_sigma**2 + (0.5 * self.sensor_sigma) ** 2)
        return base * (1.0 + self.staleness_penalty)

    @property
    def effective_hole_fraction(self) -> float:
        """Total fraction of query points that find no map surface."""
        stale_holes = min(0.25 * self._motion_since_integration, 0.4)
        return min(max(self.base_hole_fraction + stale_holes, 0.0), 0.9)

    # -- MapBackend interface -----------------------------------------------------
    def integrate(self, depth: np.ndarray, camera: CameraIntrinsics, pose: np.ndarray, frame_index: int) -> int:
        self._n_integrations += 1
        self._motion_since_integration = 0.0
        self._rotation_since_integration = 0.0
        # Work proportional to the voxels a dense integration would touch.
        return self.resolution**3

    def notify_motion(self, translation: float, rotation: float) -> None:
        self._motion_since_integration += float(translation)
        self._rotation_since_integration += float(rotation)

    def sdf_query(self, points_world: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        dist, grad = self.scene.sdf_and_gradient(pts)
        bias = self._bias_field(pts)
        dist = dist + self.effective_sigma * bias
        # Without holes the mask is all False and ``np.where`` would copy.
        if self.effective_hole_fraction <= 0.0:
            return dist, grad
        return np.where(self._hole_mask(pts), np.inf, dist), grad

    @property
    def has_content(self) -> bool:
        return self._n_integrations > 0

    # -- internals ------------------------------------------------------------------
    def _bias_field(self, points: np.ndarray) -> np.ndarray:
        phases = points @ self._wave_freq.T + self._wave_phase
        return np.sin(phases) @ self._wave_amp

    def _hole_mask(self, points: np.ndarray) -> np.ndarray:
        frac = self.effective_hole_fraction
        if frac <= 0.0:
            return np.zeros(points.shape[0], dtype=bool)
        phases = points @ self._hole_freq.T + self._hole_phase
        # np.mean(np.sin(phases), axis=1): its sum, divided by the width.
        field = np.add.reduce(np.sin(phases), axis=1) / phases.shape[1]  # roughly in [-1, 1]
        # Threshold the smooth field so approximately `frac` of points fall in holes.
        threshold = linear_quantile(field, 1.0 - frac) if points.shape[0] > 8 else 1.0 - 2.0 * frac
        return field > threshold


__all__ = ["MapBackend", "TSDFMap", "AnalyticSDFMap"]
