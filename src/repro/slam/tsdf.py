"""Dense voxel-grid truncated signed distance function (TSDF) volume.

This is KFusion's map data structure: every voxel stores the truncated signed
distance to the nearest observed surface (normalized by the truncation band µ)
together with an integration weight.  The volume supports

* :meth:`TSDFVolume.integrate` — fusing a depth frame taken from a known pose,
* :meth:`TSDFVolume.sample` / :meth:`TSDFVolume.sample_with_gradient` —
  trilinear interpolation used by SDF-based ICP tracking,
* :meth:`TSDFVolume.raycast` — extracting a synthetic depth/vertex/normal map
  for visualization and for the classic projective-ICP formulation,
* :meth:`TSDFVolume.extract_surface_points` — a point cloud of the zero
  crossing, handy for tests.

Integration is performed slice-by-slice so peak memory stays modest even at
256^3 voxels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.slam.camera import CameraIntrinsics
from repro.slam.se3 import invert, transform_points


class TSDFVolume:
    """Axis-aligned dense TSDF volume.

    Parameters
    ----------
    resolution:
        Number of voxels per axis (the design-space "volume resolution").
    size_m:
        Physical edge length of the cubic volume in metres (SLAMBench default
        4.8 m).
    mu:
        Truncation distance in metres (the design-space "µ distance").
    origin:
        World coordinates of the volume's minimum corner.  Defaults to
        centering the volume on the world origin.
    max_weight:
        Cap on the per-voxel integration weight (running average window).
    """

    def __init__(
        self,
        resolution: int = 256,
        size_m: float = 4.8,
        mu: float = 0.1,
        origin: Optional[np.ndarray] = None,
        max_weight: float = 100.0,
    ) -> None:
        if resolution < 8:
            raise ValueError("resolution must be at least 8")
        if size_m <= 0:
            raise ValueError("size_m must be positive")
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.resolution = int(resolution)
        self.size_m = float(size_m)
        self.mu = float(mu)
        self.max_weight = float(max_weight)
        self.voxel_size = self.size_m / self.resolution
        if origin is None:
            origin = -0.5 * np.array([size_m, size_m, size_m])
        self.origin = np.asarray(origin, dtype=np.float64).reshape(3)
        # Normalized TSDF in [-1, 1]; 1 means "far in front of any surface".
        self.tsdf = np.ones((resolution, resolution, resolution), dtype=np.float32)
        self.weight = np.zeros((resolution, resolution, resolution), dtype=np.float32)
        self.n_integrations = 0

    # -- coordinate transforms ---------------------------------------------------
    def world_to_voxel(self, points: np.ndarray) -> np.ndarray:
        """Continuous voxel coordinates of world points."""
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self.origin) / self.voxel_size - 0.5

    def voxel_to_world(self, voxels: np.ndarray) -> np.ndarray:
        """World coordinates of (continuous) voxel coordinates."""
        vox = np.asarray(voxels, dtype=np.float64)
        return (vox + 0.5) * self.voxel_size + self.origin

    # -- integration ------------------------------------------------------------
    def integrate(self, depth: np.ndarray, camera: CameraIntrinsics, pose_cam_to_world: np.ndarray) -> int:
        """Fuse a depth map observed from ``pose_cam_to_world`` into the volume.

        Returns the number of voxels updated (useful for workload accounting).
        """
        depth = np.asarray(depth, dtype=np.float64)
        if depth.shape != (camera.height, camera.width):
            raise ValueError("depth shape does not match camera intrinsics")
        T_world_to_cam = invert(pose_cam_to_world)
        res = self.resolution
        idx = np.arange(res)
        # Voxel center world coordinates, built slice by slice along x.
        yy, zz = np.meshgrid(idx, idx, indexing="ij")
        updated = 0
        for ix in range(res):
            vox = np.stack([np.full_like(yy, ix), yy, zz], axis=-1).reshape(-1, 3)
            world = self.voxel_to_world(vox)
            cam = transform_points(T_world_to_cam, world)
            z = cam[:, 2]
            in_front = z > 1e-6
            if not np.any(in_front):
                continue
            u = camera.fx * cam[:, 0] / np.where(in_front, z, 1.0) + camera.cx
            v = camera.fy * cam[:, 1] / np.where(in_front, z, 1.0) + camera.cy
            cols = np.round(u).astype(np.int64)
            rows = np.round(v).astype(np.int64)
            in_image = (
                in_front
                & (cols >= 0)
                & (cols < camera.width)
                & (rows >= 0)
                & (rows < camera.height)
            )
            if not np.any(in_image):
                continue
            d_obs = np.zeros(vox.shape[0])
            d_obs[in_image] = depth[rows[in_image], cols[in_image]]
            has_depth = in_image & (d_obs > 0)
            if not np.any(has_depth):
                continue
            sdf = d_obs - z
            # Only update voxels in front of (or within µ behind) the surface.
            update = has_depth & (sdf > -self.mu)
            if not np.any(update):
                continue
            tsdf_new = np.clip(sdf[update] / self.mu, -1.0, 1.0).astype(np.float32)
            flat = vox[update]
            ii, jj, kk = flat[:, 0], flat[:, 1], flat[:, 2]
            w_old = self.weight[ii, jj, kk]
            t_old = self.tsdf[ii, jj, kk]
            w_new = np.minimum(w_old + 1.0, self.max_weight).astype(np.float32)
            self.tsdf[ii, jj, kk] = (t_old * w_old + tsdf_new) / np.maximum(w_old + 1.0, 1.0)
            self.weight[ii, jj, kk] = w_new
            updated += int(np.count_nonzero(update))
        self.n_integrations += 1
        return updated

    # -- sampling -----------------------------------------------------------------
    def sample(self, points_world: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Trilinear TSDF value (metres) and validity mask at world points.

        Values are scaled back to metres (TSDF * µ).  Points outside the
        volume or in unobserved space (zero weight at all corners) are invalid.
        """
        pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        vox = self.world_to_voxel(pts)
        res = self.resolution
        inside = np.all((vox >= 0) & (vox <= res - 1.000001), axis=1)
        vox_c = np.clip(vox, 0, res - 1.000001)
        base = np.floor(vox_c).astype(np.int64)
        frac = vox_c - base
        value = np.zeros(pts.shape[0], dtype=np.float64)
        weight_sum = np.zeros(pts.shape[0], dtype=np.float64)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    ii = np.minimum(base[:, 0] + dx, res - 1)
                    jj = np.minimum(base[:, 1] + dy, res - 1)
                    kk = np.minimum(base[:, 2] + dz, res - 1)
                    w = (
                        (frac[:, 0] if dx else 1 - frac[:, 0])
                        * (frac[:, 1] if dy else 1 - frac[:, 1])
                        * (frac[:, 2] if dz else 1 - frac[:, 2])
                    )
                    value += w * self.tsdf[ii, jj, kk]
                    weight_sum += w * (self.weight[ii, jj, kk] > 0)
        observed = weight_sum > 0.5
        valid = inside & observed
        return value * self.mu, valid

    def sample_with_gradient(self, points_world: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """SDF value (metres) and unit gradient, formatted for ICP.

        Invalid points return ``+inf`` distance so the ICP outlier gate drops
        them.
        """
        pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        h = 0.5 * self.voxel_size
        value, valid = self.sample(pts)
        grad = np.zeros_like(pts)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = h
            plus, vp = self.sample(pts + offset)
            minus, vm = self.sample(pts - offset)
            grad[:, axis] = (plus - minus) / (2.0 * h)
            valid = valid & vp & vm
        norm = np.linalg.norm(grad, axis=1, keepdims=True)
        grad = grad / np.maximum(norm, 1e-12)
        dist = np.where(valid, value, np.inf)
        return dist, grad

    # -- raycasting ------------------------------------------------------------
    def raycast(
        self,
        camera: CameraIntrinsics,
        pose_cam_to_world: np.ndarray,
        near: float = 0.2,
        far: Optional[float] = None,
        step_factor: float = 0.75,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """March rays through the volume and return (depth, vertices, normals).

        Depth is the z-coordinate in the camera frame; vertices/normals are in
        world coordinates; pixels with no zero crossing get depth 0.
        """
        far = far if far is not None else self.size_m * 1.5
        dirs_cam = camera.ray_directions()
        R = np.asarray(pose_cam_to_world, dtype=np.float64)[:3, :3]
        origin = np.asarray(pose_cam_to_world, dtype=np.float64)[:3, 3]
        dirs_world = dirs_cam @ R.T
        h, w = camera.height, camera.width
        n = h * w
        d = dirs_world.reshape(n, 3)
        step = self.voxel_size * step_factor
        t = np.full(n, near, dtype=np.float64)
        prev_val = np.full(n, np.nan)
        hit_t = np.zeros(n)
        active = np.ones(n, dtype=bool)
        n_steps = int(np.ceil((far - near) / step))
        for _ in range(n_steps):
            if not np.any(active):
                break
            pts = origin + t[active, None] * d[active]
            val, valid = self.sample(pts)
            val = np.where(valid, val, np.nan)
            idx = np.flatnonzero(active)
            pv = prev_val[idx]
            crossing = (pv > 0) & (val < 0)
            if np.any(crossing):
                # Linear interpolation of the crossing position.
                frac = pv[crossing] / (pv[crossing] - val[crossing])
                hit_idx = idx[crossing]
                hit_t[hit_idx] = t[hit_idx] - step + frac * step
                active[hit_idx] = False
            prev_val[idx] = val
            t[idx] += step
            active &= t < far
        hit = hit_t > 0
        points = origin + hit_t[:, None] * d
        depth = np.where(hit, hit_t * dirs_cam.reshape(n, 3)[:, 2], 0.0)
        normals = np.zeros((n, 3))
        if np.any(hit):
            dist, grad = self.sample_with_gradient(points[hit])
            normals[hit] = grad
        return (
            depth.reshape(h, w),
            np.where(hit[:, None], points, 0.0).reshape(h, w, 3),
            normals.reshape(h, w, 3),
        )

    # -- misc ----------------------------------------------------------------------
    def extract_surface_points(self, max_points: int = 50_000, band: float = 0.25) -> np.ndarray:
        """World coordinates of observed voxels within ``band`` of the surface."""
        mask = (self.weight > 0) & (np.abs(self.tsdf) < band)
        idx = np.argwhere(mask)
        if idx.shape[0] > max_points:
            stride = int(np.ceil(idx.shape[0] / max_points))
            idx = idx[::stride]
        return self.voxel_to_world(idx)

    def occupancy_fraction(self) -> float:
        """Fraction of voxels that have been observed at least once."""
        return float(np.count_nonzero(self.weight > 0) / self.weight.size)

    @property
    def n_voxels(self) -> int:
        """Total number of voxels."""
        return self.resolution**3


__all__ = ["TSDFVolume"]
