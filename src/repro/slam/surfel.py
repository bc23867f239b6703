"""Surfel map: the ElasticFusion world model.

A surfel is a small oriented disc with a position, normal, intensity
(grayscale colour), confidence counter and last-seen timestamp.  New
observations are fused into existing surfels when they fall into the same
spatial bin (weighted averaging, confidence increment) and appended otherwise.
Only surfels whose confidence exceeds the configured *confidence threshold*
participate in tracking — this is one of the tuned algorithmic parameters.

The map also provides the *model prediction*: splatting the active surfels
into a virtual camera to obtain predicted vertex/normal/intensity maps, which
is how ElasticFusion performs projective data association for its joint
geometric/photometric tracking.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.slam.camera import CameraIntrinsics
from repro.slam.se3 import invert, transform_points


class SurfelMap:
    """Growable array-of-structures surfel map with spatial-hash fusion.

    Parameters
    ----------
    merge_distance:
        Edge length of the spatial bins used for data association during
        fusion (metres); observations falling into an occupied bin update the
        existing surfel.
    initial_capacity:
        Initial array capacity (grown geometrically).
    """

    def __init__(self, merge_distance: float = 0.02, initial_capacity: int = 4096) -> None:
        if merge_distance <= 0:
            raise ValueError("merge_distance must be positive")
        self.merge_distance = float(merge_distance)
        self._capacity = int(initial_capacity)
        self._n = 0
        self.positions = np.zeros((self._capacity, 3), dtype=np.float64)
        self.normals = np.zeros((self._capacity, 3), dtype=np.float64)
        self.intensities = np.zeros(self._capacity, dtype=np.float64)
        self.confidences = np.zeros(self._capacity, dtype=np.float64)
        self.timestamps = np.zeros(self._capacity, dtype=np.int64)
        self._bins: Dict[int, int] = {}

    # -- basic accessors -------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def n_surfels(self) -> int:
        """Number of surfels currently stored."""
        return self._n

    def active_mask(self, confidence_threshold: float) -> np.ndarray:
        """Mask of surfels stable enough to be used for tracking."""
        return self.confidences[: self._n] >= confidence_threshold

    def n_active(self, confidence_threshold: float) -> int:
        """Number of surfels passing the confidence threshold."""
        return int(np.count_nonzero(self.active_mask(confidence_threshold)))

    # -- fusion --------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        if self._n + needed <= self._capacity:
            return
        new_capacity = max(self._capacity * 2, self._n + needed)
        for name in ("positions", "normals", "intensities", "confidences", "timestamps"):
            arr = getattr(self, name)
            new = np.zeros((new_capacity,) + arr.shape[1:], dtype=arr.dtype)
            new[: self._n] = arr[: self._n]
            setattr(self, name, new)
        self._capacity = new_capacity

    def _bin_keys(self, points: np.ndarray) -> np.ndarray:
        grid = np.floor(points / self.merge_distance).astype(np.int64)
        # Pack the three grid indices into one int64 key (21 bits per axis).
        offset = 1 << 20
        return ((grid[:, 0] + offset) << 42) | ((grid[:, 1] + offset) << 21) | (grid[:, 2] + offset)

    def fuse(
        self,
        points_world: np.ndarray,
        normals_world: np.ndarray,
        intensities: np.ndarray,
        frame_index: int,
        confidence_increment: float = 1.0,
    ) -> Tuple[int, int]:
        """Fuse an observed point cloud into the map.

        Returns ``(n_updated, n_added)``.
        """
        pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        nrm = np.asarray(normals_world, dtype=np.float64).reshape(-1, 3)
        col = np.asarray(intensities, dtype=np.float64).reshape(-1)
        if pts.shape[0] != nrm.shape[0] or pts.shape[0] != col.shape[0]:
            raise ValueError("points, normals and intensities must have matching lengths")
        if pts.shape[0] == 0:
            return 0, 0
        keys = self._bin_keys(pts)
        # Collapse duplicate observations that fall into the same bin; the
        # number of collapsed observations weights the confidence increment
        # (a bin seen by many pixels in one frame becomes stable faster, as in
        # the full-resolution pipeline).
        unique_keys, first_idx, counts = np.unique(keys, return_index=True, return_counts=True)
        pts = pts[first_idx]
        nrm = nrm[first_idx]
        col = col[first_idx]
        increments = confidence_increment * counts.astype(np.float64)

        existing_idx = np.array([self._bins.get(int(k), -1) for k in unique_keys], dtype=np.int64)
        update_mask = existing_idx >= 0
        n_updated = int(np.count_nonzero(update_mask))
        n_added = int(np.count_nonzero(~update_mask))

        # Update existing surfels: confidence-weighted running average.
        if n_updated:
            idx = existing_idx[update_mask]
            inc = increments[update_mask]
            w_old = self.confidences[idx]
            w_new = w_old + inc
            alpha = (inc / w_new)[:, None]
            self.positions[idx] = self.positions[idx] * (1 - alpha) + pts[update_mask] * alpha
            blended = self.normals[idx] * (1 - alpha) + nrm[update_mask] * alpha
            norms = np.linalg.norm(blended, axis=1, keepdims=True)
            self.normals[idx] = blended / np.maximum(norms, 1e-12)
            self.intensities[idx] = self.intensities[idx] * (1 - alpha[:, 0]) + col[update_mask] * alpha[:, 0]
            self.confidences[idx] = w_new
            self.timestamps[idx] = frame_index

        # Append new surfels.
        if n_added:
            self._grow(n_added)
            start = self._n
            end = start + n_added
            self.positions[start:end] = pts[~update_mask]
            self.normals[start:end] = nrm[~update_mask]
            self.intensities[start:end] = col[~update_mask]
            self.confidences[start:end] = increments[~update_mask]
            self.timestamps[start:end] = frame_index
            new_keys = unique_keys[~update_mask]
            for offset, k in enumerate(new_keys):
                self._bins[int(k)] = start + offset
            self._n = end
        return n_updated, n_added

    def update_by_index(
        self,
        indices: np.ndarray,
        points_world: np.ndarray,
        normals_world: np.ndarray,
        intensities: np.ndarray,
        weight: float,
        frame_index: int,
    ) -> int:
        """Fuse observations into *specific* surfels (projective data association).

        ``indices`` gives, per observation, the surfel it was associated with
        (as produced by :meth:`predict_view`'s index map).  Multiple
        observations of the same surfel are averaged.  Returns the number of
        distinct surfels updated.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
        nrm = np.asarray(normals_world, dtype=np.float64).reshape(-1, 3)
        col = np.asarray(intensities, dtype=np.float64).reshape(-1)
        if idx.size == 0:
            return 0
        if np.any(idx < 0) or np.any(idx >= self._n):
            raise IndexError("surfel indices out of range")
        uniq, inverse = np.unique(idx, return_inverse=True)
        k = uniq.size
        # Per-surfel sums, added in observation order from 0.0 (as np.add.at
        # into zeros adds them).
        w_acc = np.bincount(inverse, np.full(idx.size, float(weight)), minlength=k)
        c_acc = np.bincount(inverse, col * weight, minlength=k)
        p_acc, n_acc = np.empty((k, 3)), np.empty((k, 3))
        for acc, values in ((p_acc, pts * weight), (n_acc, nrm * weight)):
            for c in range(3):
                acc[:, c] = np.bincount(inverse, values[:, c], minlength=k)
        conf_old = self.confidences[uniq]
        denom = conf_old + w_acc
        self.positions[uniq] = (self.positions[uniq] * conf_old[:, None] + p_acc) / denom[:, None]
        blended = self.normals[uniq] * conf_old[:, None] + n_acc
        norms = np.linalg.norm(blended, axis=1, keepdims=True)
        self.normals[uniq] = blended / np.maximum(norms, 1e-12)
        self.intensities[uniq] = (self.intensities[uniq] * conf_old + c_acc) / denom
        self.confidences[uniq] = denom
        self.timestamps[uniq] = frame_index
        return int(k)

    # -- model prediction ------------------------------------------------------------
    def predict_view(
        self,
        camera: CameraIntrinsics,
        pose_cam_to_world: np.ndarray,
        confidence_threshold: float = 0.0,
        max_depth: float = 10.0,
        splat_radius: int = 1,
    ) -> Dict[str, np.ndarray]:
        """Splat active surfels into a virtual camera (z-buffered).

        Each surfel covers a ``(2 * splat_radius + 1)``-pixel square so the
        predicted view is dense enough for projective data association even at
        low image resolutions (real surfels are discs that cover several
        pixels).

        Returns a dictionary with ``depth`` (H, W), ``vertices`` (H, W, 3,
        world frame), ``normals`` (H, W, 3), ``intensity`` (H, W) and
        ``index`` (H, W, surfel index or -1).
        """
        h, w = camera.height, camera.width
        out = {
            "depth": np.zeros((h, w)),
            "vertices": np.zeros((h, w, 3)),
            "normals": np.zeros((h, w, 3)),
            "intensity": np.zeros((h, w)),
            "index": np.full((h, w), -1, dtype=np.int64),
        }
        if self._n == 0:
            return out
        idx_active = np.flatnonzero(self.active_mask(confidence_threshold))
        if idx_active.size == 0:
            return out
        pts_cam = transform_points(invert(pose_cam_to_world), self.positions.take(idx_active, axis=0))
        rows, cols, valid = camera.project_to_indices(pts_cam)
        z = pts_cam[:, 2]
        keep = np.flatnonzero(valid & (z > 0.05) & (z < max_depth))
        if keep.size == 0:
            return out
        rows, cols, z = rows.take(keep), cols.take(keep), z.take(keep)

        # Z-buffer: every surfel writes a (2r+1)^2 square, farthest first, so
        # the nearest write wins each pixel.  The write order is that of a
        # stable sort of all splatted copies by decreasing depth, built from
        # one stable sort of the n surfel depths: a run of s equal depths
        # starting at rank r0 expands offset-major, copy k of its m-th member
        # landing at K*r0 + k*s + m.
        side = 2 * splat_radius + 1
        K = side * side
        n = z.size
        order = np.argsort(-z, kind="stable")
        z_sorted = z.take(order)
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        np.not_equal(z_sorted[1:], z_sorted[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        run = np.cumsum(run_start) - 1
        r0 = starts.take(run)
        length = np.diff(np.append(starts, n)).take(run)
        offsets = np.arange(-splat_radius, splat_radius + 1)
        row_offsets = np.minimum(np.maximum(rows.take(order) + offsets[:, None], 0), h - 1) * w
        col_offsets = np.minimum(np.maximum(cols.take(order) + offsets[:, None], 0), w - 1)
        splat_pixels = (row_offsets[:, None, :] + col_offsets[None, :, :]).reshape(K, n)
        position = K * r0 + (np.arange(n) - r0) + np.arange(K)[:, None] * length
        pixel_by_write = np.empty(K * n, dtype=np.int64)
        pixel_by_write[position] = splat_pixels
        surfel_by_write = np.empty(K * n, dtype=np.int64)
        surfel_by_write[position] = order
        winner = np.full(h * w, -1, dtype=np.int64)
        winner[pixel_by_write] = surfel_by_write

        # Every output map reads the winning surfel of each covered pixel.
        hit = np.flatnonzero(winner >= 0)
        local = winner.take(hit)
        ids = idx_active.take(keep.take(local))
        out["index"].reshape(-1)[hit] = ids
        out["depth"].reshape(-1)[hit] = z.take(local)
        out["vertices"].reshape(-1, 3)[hit] = self.positions.take(ids, axis=0)
        out["normals"].reshape(-1, 3)[hit] = self.normals.take(ids, axis=0)
        out["intensity"].reshape(-1)[hit] = self.intensities.take(ids)
        return out

    def decay_unstable(self, frame_index: int, max_age: int = 60, min_confidence: float = 2.0) -> int:
        """Remove surfels that never became confident and have not been seen lately.

        Mirrors ElasticFusion's free-space violation / unstable-point cleanup.
        Returns the number of removed surfels.
        """
        if self._n == 0:
            return 0
        n = self._n
        age = frame_index - self.timestamps[:n]
        unstable = (self.confidences[:n] < min_confidence) & (age > max_age)
        if not np.any(unstable):
            return 0
        keep = ~unstable
        n_keep = int(np.count_nonzero(keep))
        for name in ("positions", "normals", "intensities", "confidences", "timestamps"):
            getattr(self, name)[:n_keep] = getattr(self, name)[:n][keep]
        removed = n - n_keep
        self._n = n_keep
        # Rebuild the spatial hash (indices changed).
        self._bins = {}
        keys = self._bin_keys(self.positions[: self._n])
        for i, k in enumerate(keys):
            self._bins[int(k)] = i
        return removed


__all__ = ["SurfelMap"]
