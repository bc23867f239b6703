"""Depth-image preprocessing: bilateral filtering, pyramids, vertex/normal maps.

These correspond to KFusion's *Preprocessing* kernels (``mm2meters``,
``bilateralFilter``, ``halfSampleRobust``, ``depth2vertex``, ``vertex2normal``)
and are shared by both pipelines.  All functions are vectorized; windowed
operations use shifted-array accumulation rather than per-pixel loops.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.slam.camera import CameraIntrinsics


def _shift2d(img: np.ndarray, dy: int, dx: int, fill: float = 0.0) -> np.ndarray:
    """Shift a 2-D array by (dy, dx), filling exposed borders with ``fill``."""
    out = np.full_like(img, fill)
    h, w = img.shape
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[ys, xs] = img[ys_src, xs_src]
    return out


def bilateral_filter(
    depth: np.ndarray,
    radius: int = 2,
    sigma_space: float = 1.5,
    sigma_range: float = 0.03,
) -> np.ndarray:
    """Edge-preserving bilateral filter of a depth map.

    Invalid pixels (<= 0) neither contribute to nor receive filtered values.
    ``sigma_range`` is in metres; KFusion uses ~3 cm so that depth
    discontinuities at object boundaries are preserved.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError("depth must be a 2-D array")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return depth.copy()
    valid = depth > 0
    acc = np.zeros_like(depth)
    weight = np.zeros_like(depth)
    inv_2ss = 1.0 / (2.0 * sigma_space * sigma_space)
    inv_2sr = 1.0 / (2.0 * sigma_range * sigma_range)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = _shift2d(depth, dy, dx)
            shifted_valid = _shift2d(valid.astype(np.float64), dy, dx) > 0.5
            spatial_w = np.exp(-(dy * dy + dx * dx) * inv_2ss)
            diff = shifted - depth
            range_w = np.exp(-(diff * diff) * inv_2sr)
            w = spatial_w * range_w * shifted_valid
            acc += w * shifted
            weight += w
    out = np.where(valid & (weight > 0), acc / np.maximum(weight, 1e-12), 0.0)
    return out


def block_average_downsample(depth: np.ndarray, factor: int) -> np.ndarray:
    """Downsample a depth map by block-averaging valid pixels only.

    This mirrors KFusion's robust half-sampling: a block with no valid pixel
    produces an invalid (zero) output pixel.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return depth.copy()
    h, w = depth.shape
    new_h, new_w = h // factor, w // factor
    if new_h == 0 or new_w == 0:
        raise ValueError(f"cannot downsample a {h}x{w} image by {factor}")
    cropped = depth[: new_h * factor, : new_w * factor]
    blocks = cropped.reshape(new_h, factor, new_w, factor)
    valid = blocks > 0
    sums = np.where(valid, blocks, 0.0).sum(axis=(1, 3))
    counts = valid.sum(axis=(1, 3))
    return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)


def downsample_intensity(intensity: np.ndarray, factor: int) -> np.ndarray:
    """Plain block-average downsampling of an intensity image."""
    img = np.asarray(intensity, dtype=np.float64)
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return img.copy()
    h, w = img.shape
    new_h, new_w = h // factor, w // factor
    cropped = img[: new_h * factor, : new_w * factor]
    return cropped.reshape(new_h, factor, new_w, factor).mean(axis=(1, 3))


def depth_pyramid(depth: np.ndarray, levels: int) -> List[np.ndarray]:
    """Multi-resolution depth pyramid (level 0 = finest)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    pyramid = [np.asarray(depth, dtype=np.float64)]
    for _ in range(1, levels):
        prev = pyramid[-1]
        if min(prev.shape) < 2:
            break
        pyramid.append(block_average_downsample(prev, 2))
    return pyramid


def intensity_pyramid(intensity: np.ndarray, levels: int) -> List[np.ndarray]:
    """Multi-resolution intensity pyramid (level 0 = finest)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    pyramid = [np.asarray(intensity, dtype=np.float64)]
    for _ in range(1, levels):
        prev = pyramid[-1]
        if min(prev.shape) < 2:
            break
        pyramid.append(downsample_intensity(prev, 2))
    return pyramid


def vertex_map(depth: np.ndarray, camera: CameraIntrinsics) -> np.ndarray:
    """Back-project a depth map into a camera-frame vertex map (H, W, 3)."""
    return camera.backproject(depth)


def normal_map(vertices: np.ndarray) -> np.ndarray:
    """Per-pixel normals from central differences of a vertex map.

    Pixels without valid neighbours get a zero normal.
    """
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 3 or v.shape[2] != 3:
        raise ValueError("vertex map must have shape (H, W, 3)")
    dx = np.zeros_like(v)
    dy = np.zeros_like(v)
    dx[:, 1:-1] = v[:, 2:] - v[:, :-2]
    dy[1:-1, :] = v[2:, :] - v[:-2, :]
    # np.cross(dy, dx) and np.linalg.norm(n, axis=-1), written out in
    # numpy's own operation order (bit for bit the same, without the
    # per-call overhead).
    a0, a1, a2 = dy[..., 0], dy[..., 1], dy[..., 2]
    b0, b1, b2 = dx[..., 0], dx[..., 1], dx[..., 2]
    n = np.empty_like(v)
    n[..., 0] = a1 * b2 - a2 * b1
    n[..., 1] = a2 * b0 - a0 * b2
    n[..., 2] = a0 * b1 - a1 * b0
    n0, n1, n2 = n[..., 0], n[..., 1], n[..., 2]
    norm = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2)[..., None]
    valid = (v[..., 2] > 0)[..., None] & (norm > 1e-12)
    return np.where(valid, n / np.maximum(norm, 1e-12), 0.0)


def image_gradients(intensity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Central-difference image gradients (gx, gy) of an intensity image."""
    img = np.asarray(intensity, dtype=np.float64)
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[:, 1:-1] = 0.5 * (img[:, 2:] - img[:, :-2])
    gy[1:-1, :] = 0.5 * (img[2:, :] - img[:-2, :])
    return gx, gy


def bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Bilinearly sample ``image`` at float pixel coordinates ``(u, v)``.

    ``image`` is ``(H, W)`` or ``(H, W, C)``; the result is ``(N,)`` or
    ``(N, C)``, every channel weighted exactly as a 2-D image would be.
    Out-of-bounds and non-finite samples return ``fill``.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    # Inside the image clipping only lowers the far edge, so x0 <= w - 2 and
    # y0 <= h - 2 and their right and lower neighbours exist; samples outside
    # read pixel 0 and are replaced by ``fill``.  A one-pixel-wide (-high)
    # image is sampled along its single column (row): x0 = x1 = 0, fx = 0.
    uc = np.minimum(np.where(valid, u, 0.0), w - 1.000001 if w > 1 else 0.0)
    vc = np.minimum(np.where(valid, v, 0.0), h - 1.000001 if h > 1 else 0.0)
    x0 = np.floor(uc).astype(np.int64)
    y0 = np.floor(vc).astype(np.int64)
    fx = uc - x0
    fy = vc - y0
    top = y0 * w
    bottom = top + w if h > 1 else top
    x1 = x0 + 1 if w > 1 else x0
    pixels = img.reshape((h * w,) + img.shape[2:])
    if img.ndim == 3:
        fx, fy, valid = fx[:, None], fy[:, None], valid[:, None]
    gx, gy = 1 - fx, 1 - fy
    val = (
        pixels.take(top + x0, axis=0) * gx * gy
        + pixels.take(top + x1, axis=0) * fx * gy
        + pixels.take(bottom + x0, axis=0) * gx * fy
        + pixels.take(bottom + x1, axis=0) * fx * fy
    )
    return np.where(valid, val, fill)


__all__ = [
    "bilateral_filter",
    "block_average_downsample",
    "downsample_intensity",
    "depth_pyramid",
    "intensity_pyramid",
    "vertex_map",
    "normal_map",
    "image_gradients",
    "bilinear_sample",
]
