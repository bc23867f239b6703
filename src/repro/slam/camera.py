"""Pinhole camera model: projection, back-projection and resolution scaling.

The SLAMBench KFusion pipeline resizes the raw sensor frame by the
``compute size ratio`` parameter before processing; :meth:`CameraIntrinsics.scaled`
produces the matching intrinsics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics for an image of ``width`` x ``height`` pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    # -- constructors -----------------------------------------------------------
    @classmethod
    def kinect_like(cls, width: int = 640, height: int = 480) -> "CameraIntrinsics":
        """Intrinsics matching the ICL-NUIM / Kinect sensor (VGA, ~90 deg FoV)."""
        scale = width / 640.0
        return cls(fx=481.2 * scale, fy=480.0 * scale, cx=width / 2.0 - 0.5, cy=height / 2.0 - 0.5, width=width, height=height)

    def scaled(self, ratio: float) -> "CameraIntrinsics":
        """Intrinsics after down-scaling the image by ``ratio`` (>= 1)."""
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        # Floor division so that the scaled intrinsics match block-averaged
        # image dimensions (a 7-pixel row halved yields 3 pixels, not 4).
        new_w = max(int(self.width / ratio), 1)
        new_h = max(int(self.height / ratio), 1)
        sx = new_w / self.width
        sy = new_h / self.height
        return CameraIntrinsics(
            fx=self.fx * sx,
            fy=self.fy * sy,
            cx=self.cx * sx,
            cy=self.cy * sy,
            width=new_w,
            height=new_h,
        )

    # -- properties ----------------------------------------------------------------
    @property
    def n_pixels(self) -> int:
        """Total pixel count."""
        return self.width * self.height

    @property
    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix ``K``."""
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    # -- geometry ------------------------------------------------------------------
    def pixel_grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Meshgrid of pixel center coordinates ``(u, v)`` each of shape (H, W)."""
        u = np.arange(self.width, dtype=np.float64)
        v = np.arange(self.height, dtype=np.float64)
        return np.meshgrid(u, v)

    def ray_directions(self) -> np.ndarray:
        """Unit ray direction per pixel in the camera frame, shape (H, W, 3)."""
        u, v = self.pixel_grid()
        x = (u - self.cx) / self.fx
        y = (v - self.cy) / self.fy
        z = np.ones_like(x)
        dirs = np.stack([x, y, z], axis=-1)
        norms = np.linalg.norm(dirs, axis=-1, keepdims=True)
        return dirs / norms

    def backproject(self, depth: np.ndarray) -> np.ndarray:
        """Back-project a depth map into a camera-frame vertex map (H, W, 3).

        ``depth`` holds the z-coordinate (not the ray length); invalid pixels
        (depth <= 0 or non-finite) produce zero vertices.
        """
        depth = np.asarray(depth, dtype=np.float64)
        if depth.shape != (self.height, self.width):
            raise ValueError(
                f"depth shape {depth.shape} does not match intrinsics ({self.height}, {self.width})"
            )
        # A column of row indices and a row of column indices broadcast to
        # the pixel grid's coefficients without building it.
        cols = np.arange(self.width, dtype=np.float64)
        rows = np.arange(self.height, dtype=np.float64)[:, None]
        valid = np.isfinite(depth) & (depth > 0)
        return self.unproject(rows, cols, np.where(valid, depth, 0.0))

    def unproject(self, rows: np.ndarray, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Camera-frame points ``(..., 3)`` of pixel centres ``(rows, cols)``
        at z-depth ``z`` (arrays that broadcast to ``z``'s shape)."""
        x = (cols - self.cx) / self.fx * z
        y = (rows - self.cy) / self.fy * z
        return np.stack([x, y, z], axis=-1)

    def project(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project camera-frame points to pixel coordinates.

        Parameters
        ----------
        points:
            ``(..., 3)`` array of camera-frame points.

        Returns
        -------
        (u, v, valid):
            Pixel coordinates (float) and a mask of points that project in
            front of the camera and inside the image bounds.
        """
        pts = np.asarray(points, dtype=np.float64)
        z = pts[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * pts[..., 0] / z + self.cx
            v = self.fy * pts[..., 1] / z + self.cy
        # The bounds tests also reject NaN and infinite coordinates.
        valid = (z > 1e-6) & (u >= 0) & (u <= self.width - 1) & (v >= 0) & (v <= self.height - 1)
        return u, v, valid

    def project_to_indices(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`project` but returning integer (row, col) pixel indices."""
        u, v, valid = self.project(points)
        cols = np.minimum(np.maximum(np.round(u).astype(np.int64), 0), self.width - 1)
        rows = np.minimum(np.maximum(np.round(v).astype(np.int64), 0), self.height - 1)
        return rows, cols, valid


__all__ = ["CameraIntrinsics"]
