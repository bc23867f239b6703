"""ElasticFusion-style surfel SLAM pipeline with tunable algorithmic parameters.

The pipeline follows the structure of Whelan et al.'s ElasticFusion:

* a growing **surfel map** is the world model (:mod:`repro.slam.surfel`);
* camera motion is estimated by a **joint geometric + photometric**
  Gauss-Newton alignment of the current frame against the *predicted model
  view* (projective data association), with the relative weight of the two
  terms exposed as the ``ICP/RGB weight`` parameter;
* every frame is fused into the map; only surfels above the **confidence
  threshold** participate in tracking;
* the **depth cut-off** discards far (noisy) depth returns;
* optional stages map to the paper's flags: SO(3) photometric pre-alignment,
  open-loop (frame-to-frame) tracking instead of model tracking (i.e. local
  loop closures disabled), relocalisation after tracking failures, fast
  (single-pyramid-level) RGB odometry, and frame-to-frame RGB tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.slam import se3
from repro.slam.camera import CameraIntrinsics
from repro.slam.dataset import SyntheticRGBDDataset
from repro.slam.filters import (
    bilinear_sample,
    depth_pyramid,
    downsample_intensity,
    image_gradients,
    intensity_pyramid,
    normal_map,
)
from repro.slam.icp import solve_increment
from repro.slam.pipeline import FrameStats, PipelineResult
from repro.slam.surfel import SurfelMap
from repro.slam.trajectory import Trajectory

#: Nominal sensor resolution assumed by the runtime workload model.
NOMINAL_SENSOR_WIDTH = 640
NOMINAL_SENSOR_HEIGHT = 480


@dataclass(frozen=True)
class ElasticFusionConfig:
    """Algorithmic configuration of the ElasticFusion pipeline.

    Field defaults are the upstream ElasticFusion defaults, which are also the
    "Default" row of Table I in the paper.
    """

    icp_rgb_weight: float = 10.0
    depth_cutoff: float = 3.0
    confidence_threshold: float = 10.0
    so3_prealignment: bool = True
    open_loop: bool = False
    relocalisation: bool = True
    fast_odometry: bool = False
    frame_to_frame_rgb: bool = False
    pyramid_levels: int = 3
    iterations_per_level: Tuple[int, ...] = (4, 5, 10)  # coarse -> fine

    def __post_init__(self) -> None:
        if self.icp_rgb_weight < 0:
            raise ValueError("icp_rgb_weight must be non-negative")
        if self.depth_cutoff <= 0:
            raise ValueError("depth_cutoff must be positive")
        if self.confidence_threshold < 0:
            raise ValueError("confidence_threshold must be non-negative")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if len(self.iterations_per_level) < 1 or any(i < 0 for i in self.iterations_per_level):
            raise ValueError("iterations_per_level must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for result records."""
        return {
            "icp_rgb_weight": self.icp_rgb_weight,
            "depth_cutoff": self.depth_cutoff,
            "confidence_threshold": self.confidence_threshold,
            "so3_prealignment": self.so3_prealignment,
            "open_loop": self.open_loop,
            "relocalisation": self.relocalisation,
            "fast_odometry": self.fast_odometry,
            "frame_to_frame_rgb": self.frame_to_frame_rgb,
        }

    @classmethod
    def from_mapping(cls, values: Dict[str, object]) -> "ElasticFusionConfig":
        """Build a config from a (design-space) configuration dictionary."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        filtered = {k: v for k, v in dict(values).items() if k in known}
        for flag in ("so3_prealignment", "open_loop", "relocalisation", "fast_odometry", "frame_to_frame_rgb"):
            if flag in filtered:
                filtered[flag] = bool(filtered[flag])
        return cls(**filtered)


def _normalized_box_blur(image: np.ndarray, valid: np.ndarray, radius: int = 2) -> np.ndarray:
    """Box blur that ignores invalid pixels (normalized convolution)."""
    img = np.where(valid, image, 0.0)
    weight = valid.astype(np.float64)
    acc = np.zeros_like(img)
    w_acc = np.zeros_like(img)
    h, w = img.shape
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            ys = slice(max(dy, 0), h + min(dy, 0))
            xs = slice(max(dx, 0), w + min(dx, 0))
            ys_src = slice(max(-dy, 0), h + min(-dy, 0))
            xs_src = slice(max(-dx, 0), w + min(-dx, 0))
            acc[ys, xs] += img[ys_src, xs_src]
            w_acc[ys, xs] += weight[ys_src, xs_src]
    return np.where(w_acc > 0, acc / np.maximum(w_acc, 1e-12), 0.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (the base array stays writable)."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class _FrameInputs:
    """What tracking, fusion and the next reference view read of one frame.

    Built once per frame by :meth:`ElasticFusion._frame_inputs`; every array
    is read-only.  Pyramid lists run from the finest level (0) to the
    coarsest.
    """

    cams: List[CameraIntrinsics]
    points: List[np.ndarray]  # (N_l, 3) camera-frame points of valid depth
    observed: List[np.ndarray]  # (N_l,) intensity at those points
    intensity: np.ndarray  # (H, W) level-0 intensity
    vertices: np.ndarray  # (H, W, 3) level-0 camera-frame vertex map
    normals: np.ndarray  # (H, W, 3) level-0 camera-frame normal map
    valid: np.ndarray  # (H, W) valid depth with a usable normal
    fused_pixels: np.ndarray  # flat indices of the pixels fused into the map
    fused_points: np.ndarray  # (M, 3) their vertices
    fused_normals: np.ndarray  # (M, 3) their normals
    fused_intensity: np.ndarray  # (M,)
    fused_depth: np.ndarray  # (M,)

    @property
    def n_observed(self) -> int:
        """Level-0 pixels with valid depth."""
        return self.points[0].shape[0]


class _TargetView:
    """A reference view tracking residuals are computed against.

    What the residual terms derive from the view is computed once and kept:
    the world-to-camera transform, flat ``(H*W, ...)`` maps for index
    gathers, the intensity and gradient image the photometric term samples,
    and one downsampled view per pyramid factor.
    """

    def __init__(
        self,
        pose: np.ndarray,  # camera-to-world of the reference view
        camera: CameraIntrinsics,
        vertices: np.ndarray,  # (H, W, 3) world-frame vertices (0 where invalid)
        normals: np.ndarray,  # (H, W, 3) world-frame normals
        intensity: np.ndarray,  # (H, W)
        valid: np.ndarray,  # (H, W) bool
    ) -> None:
        self.pose = pose
        self.camera = camera
        self.vertices = vertices
        self.normals = normals
        self.intensity = intensity
        self.valid = valid
        self.T_wc = se3.invert(pose)
        self.R_wc = self.T_wc[:3, :3]
        n_pixels = camera.height * camera.width
        self.vertices_flat = np.ascontiguousarray(vertices).reshape(n_pixels, 3)
        self.normals_flat = np.ascontiguousarray(normals).reshape(n_pixels, 3)
        self.valid_flat = np.ascontiguousarray(valid).reshape(n_pixels)
        self._samples: Optional[np.ndarray] = None
        self._downsampled: Dict[int, "_TargetView"] = {}

    @property
    def samples(self) -> np.ndarray:
        """``(H, W, 3)``: intensity and its x and y gradients, sampled together."""
        if self._samples is None:
            gx, gy = image_gradients(self.intensity)
            self._samples = np.stack([self.intensity, gx, gy], axis=-1)
        return self._samples

    def downsampled(self, factor: int) -> "_TargetView":
        """This view at ``1 / factor`` resolution (built once per factor)."""
        if factor == 1:
            return self
        view = self._downsampled.get(factor)
        if view is None:
            cam = self.camera.scaled(factor)
            h, w = cam.height, cam.width
            view = self._downsampled[factor] = _TargetView(
                pose=self.pose,
                camera=cam,
                vertices=self.vertices[::factor, ::factor][:h, :w],
                normals=self.normals[::factor, ::factor][:h, :w],
                intensity=downsample_intensity(self.intensity, factor),
                valid=self.valid[::factor, ::factor][:h, :w],
            )
        return view


def _no_terms() -> Tuple[np.ndarray, np.ndarray, float, int]:
    return np.zeros((6, 6)), np.zeros(6), float("inf"), 0


def _jacobian(d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``(N, 6)`` rows ``[d, p x d]``: ``np.concatenate([d, np.cross(p, d)],
    axis=1)`` with the cross product written out in numpy's order."""
    J = np.empty((d.shape[0], 6))
    J[:, :3] = d
    d0, d1, d2 = d[:, 0], d[:, 1], d[:, 2]
    p0, p1, p2 = p[:, 0], p[:, 1], p[:, 2]
    np.subtract(p1 * d2, p2 * d1, out=J[:, 3])
    np.subtract(p2 * d0, p0 * d2, out=J[:, 4])
    np.subtract(p0 * d1, p1 * d0, out=J[:, 5])
    return J


#: ``(pts_ref, z, u, v)``: points in a target's camera frame, their depth
#: and their pixel coordinates.
_Projection = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _project(camera: CameraIntrinsics, pts_ref: np.ndarray) -> _Projection:
    """Pixel coordinates of ``(N, 3)`` camera-frame points, computed as
    :meth:`CameraIntrinsics.project` computes them."""
    z = pts_ref[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * pts_ref[:, 0] / z + camera.cx
        v = camera.fy * pts_ref[:, 1] / z + camera.cy
    return pts_ref, z, u, v


def _associate(proj: _Projection, camera: CameraIntrinsics, valid_flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(hit, pixels)``: the points that project onto a valid pixel and
    those pixels' flat indices, in point order.

    As ``camera.project_to_indices`` and a ``valid_flat`` lookup, but only
    the points inside the image are rounded: for ``0 <= u <= w - 1``,
    ``round(u)`` already lies in ``[0, w - 1]``, so no clamp can bind.  The
    bounds tests also reject NaN and infinite coordinates.
    """
    _, z, u, v = proj
    inside = ((z > 1e-6) & (u >= 0) & (u <= camera.width - 1) & (v >= 0) & (v <= camera.height - 1)).nonzero()[0]
    pixels = v.take(inside).round().astype(np.int64) * camera.width + u.take(inside).round().astype(np.int64)
    on_view = valid_flat.take(pixels).nonzero()[0]
    return inside.take(on_view), pixels.take(on_view)


#: Damping of the rotation-only normal equations of the SO(3) pre-alignment.
_SO3_DAMPING = 1e-5 * np.eye(3)
_SO3_DAMPING.flags.writeable = False


class ElasticFusion:
    """The ElasticFusion dense surfel SLAM pipeline."""

    def __init__(
        self,
        config: ElasticFusionConfig,
        seed: int = 0,
        tracking_failure_rmse: float = 0.05,
        min_inlier_fraction: float = 0.3,
        fusion_stride: int = 1,
        surfel_merge_distance: float = 0.02,
        confidence_per_observation: float = 4.0,
        min_model_coverage: float = 0.4,
    ) -> None:
        self.config = config
        self.seed = int(seed)
        self.tracking_failure_rmse = float(tracking_failure_rmse)
        self.min_inlier_fraction = float(min_inlier_fraction)
        self.fusion_stride = max(int(fusion_stride), 1)
        self.surfel_merge_distance = float(surfel_merge_distance)
        self.confidence_per_observation = float(confidence_per_observation)
        self.min_model_coverage = float(min_model_coverage)

    # -- preprocessing ------------------------------------------------------------
    def _frame_inputs(self, depth: np.ndarray, intensity: np.ndarray, camera: CameraIntrinsics) -> _FrameInputs:
        """Depth cut-off, pyramids, tracking points and fusion inputs of a frame."""
        cfg = self.config
        d = np.asarray(depth, dtype=np.float64).copy()
        d[d > cfg.depth_cutoff] = 0.0
        depths = depth_pyramid(d, levels=cfg.pyramid_levels)
        intensities = intensity_pyramid(np.asarray(intensity, dtype=np.float64), levels=len(depths))
        cams = [camera]
        for _ in range(1, len(depths)):
            cams.append(cams[-1].scaled(2))
        points, observed, vertex_maps = [], [], []
        for depth_l, intensity_l, cam in zip(depths, intensities, cams):
            vertices = cam.backproject(depth_l)
            pixels = np.flatnonzero(depth_l > 0)
            points.append(_read_only(vertices.reshape(-1, 3).take(pixels, axis=0)))
            observed.append(_read_only(intensity_l.reshape(-1).take(pixels)))
            vertex_maps.append(vertices)

        vertices, depth0 = vertex_maps[0], depths[0]
        normals = normal_map(vertices)
        n0, n1, n2 = normals[..., 0], normals[..., 1], normals[..., 2]
        valid = (depth0 > 0) & (np.sqrt(n0 * n0 + n1 * n1 + n2 * n2) > 1e-6)
        fused = valid
        if self.fusion_stride > 1:
            fused = np.zeros_like(valid)
            fused[:: self.fusion_stride, :: self.fusion_stride] = valid[:: self.fusion_stride, :: self.fusion_stride]
        fused_pixels = np.flatnonzero(fused)
        return _FrameInputs(
            cams=cams,
            points=points,
            observed=observed,
            intensity=_read_only(intensities[0]),
            vertices=_read_only(vertices),
            normals=_read_only(normals),
            valid=_read_only(valid),
            fused_pixels=_read_only(fused_pixels),
            fused_points=_read_only(vertices.reshape(-1, 3).take(fused_pixels, axis=0)),
            fused_normals=_read_only(normals.reshape(-1, 3).take(fused_pixels, axis=0)),
            fused_intensity=_read_only(intensities[0].reshape(-1).take(fused_pixels)),
            fused_depth=_read_only(depth0.reshape(-1).take(fused_pixels)),
        )

    # -- reference views -------------------------------------------------------------
    @staticmethod
    def _view_from_frame(inputs: _FrameInputs, pose: np.ndarray) -> _TargetView:
        valid = inputs.valid[..., None]
        return _TargetView(
            pose=np.array(pose),
            camera=inputs.cams[0],
            vertices=np.where(valid, se3.transform_points(pose, inputs.vertices), 0.0),
            normals=np.where(valid, se3.rotate_vectors(pose, inputs.normals), 0.0),
            intensity=inputs.intensity,
            valid=inputs.valid,
        )

    def _view_from_model(
        self, surfels: SurfelMap, camera: CameraIntrinsics, pose: np.ndarray
    ) -> _TargetView:
        pred = surfels.predict_view(camera, pose, confidence_threshold=self.config.confidence_threshold)
        valid = pred["depth"] > 0
        # The splatted intensity is piecewise constant per surfel; smooth it so
        # that the photometric term sees usable image gradients (the real
        # pipeline renders surfel discs at full sensor resolution, which has the
        # same low-pass effect).
        intensity = _normalized_box_blur(pred["intensity"], valid, radius=2)
        return _TargetView(
            pose=np.array(pose),
            camera=camera,
            vertices=pred["vertices"],
            normals=pred["normals"],
            intensity=intensity,
            valid=valid,
        )

    # -- tracking ----------------------------------------------------------------------
    def _joint_tracking(
        self,
        inputs: _FrameInputs,
        geometric_target: _TargetView,
        photometric_target: _TargetView,
        initial_pose: np.ndarray,
        rotation_only_first: bool,
    ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Joint ICP + RGB Gauss-Newton over the pyramid (coarse to fine)."""
        cfg = self.config
        T = np.array(initial_pose, dtype=np.float64)
        stats = {"icp_iterations": 0, "rgb_iterations": 0, "error": np.inf, "inliers": 0.0, "so3_iterations": 0}

        w_icp = cfg.icp_rgb_weight
        n_levels = len(inputs.cams)
        rgb_levels = 1 if cfg.fast_odometry else n_levels

        # Optional SO(3) photometric pre-alignment at the coarsest level.
        if rotation_only_first:
            level = n_levels - 1
            T, so3_iters = self._so3_prealign(
                inputs.points[level], inputs.observed[level], inputs.cams[level], photometric_target, T
            )
            stats["so3_iterations"] = so3_iters

        for level in range(n_levels - 1, -1, -1):
            iters = cfg.iterations_per_level[min(level, len(cfg.iterations_per_level) - 1)]
            if iters <= 0:
                continue
            geo_target = geometric_target.downsampled(2**level)
            # Fast odometry runs the RGB term on a single (the coarsest)
            # pyramid level only, trading accuracy for speed.
            rgb_enabled = (level < rgb_levels) if not cfg.fast_odometry else (level == n_levels - 1)
            rgb_target = photometric_target.downsampled(2**level) if rgb_enabled else None

            pts_cam = inputs.points[level]
            obs_intensity = inputs.observed[level]
            if pts_cam.shape[0] < 12:
                continue
            prev_error = None
            for _ in range(int(iters)):
                JtJ = np.zeros((6, 6))
                Jtr = np.zeros(6)
                total_error = 0.0
                total_terms = 0

                pts_world = se3.transform_points(T, pts_cam)
                geo_proj = _project(geo_target.camera, se3.transform_points(geo_target.T_wc, pts_world))
                # Geometric term: projective association into the geometric target.
                geo_JtJ, geo_Jtr, geo_err, geo_inliers = self._geometric_terms(pts_world, geo_proj, geo_target)
                if geo_inliers > 0:
                    JtJ += w_icp * geo_JtJ
                    Jtr += w_icp * geo_Jtr
                    total_error += geo_err * geo_inliers
                    total_terms += geo_inliers
                stats["icp_iterations"] += 1

                # Photometric term (its weight is 1).
                if rgb_target is not None:
                    rgb_proj = (
                        geo_proj
                        if rgb_target is geo_target
                        else _project(rgb_target.camera, se3.transform_points(rgb_target.T_wc, pts_world))
                    )
                    rgb_JtJ, rgb_Jtr, rgb_err, rgb_inliers = self._photometric_terms(
                        pts_world, rgb_proj, obs_intensity, rgb_target
                    )
                    if rgb_inliers > 0:
                        JtJ += rgb_JtJ
                        Jtr += rgb_Jtr
                    stats["rgb_iterations"] += 1

                if total_terms < 6:
                    break
                delta = solve_increment(JtJ, Jtr, damping=1e-5)
                T = se3.exp_se3(delta) @ T
                error = total_error / max(total_terms, 1)
                stats["error"] = error
                stats["inliers"] = geo_inliers / max(pts_cam.shape[0], 1)
                if prev_error is not None and abs(prev_error - error) < 1e-8:
                    prev_error = error
                    break
                prev_error = error
        return T, stats

    def _geometric_terms(
        self, pts_world: np.ndarray, proj: _Projection, target: _TargetView
    ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """Point-to-plane normal equations against a reference view.

        ``proj`` is :func:`_project` of ``pts_world`` in the target's camera
        frame.
        """
        hit, pixels = _associate(proj, target.camera, target.valid_flat)
        if hit.size == 0:
            return _no_terms()
        p = pts_world.take(hit, axis=0)
        diff = p - target.vertices_flat.take(pixels, axis=0)
        d0, d1, d2 = diff[:, 0], diff[:, 1], diff[:, 2]
        close = (np.sqrt(d0 * d0 + d1 * d1 + d2 * d2) < 0.15).nonzero()[0]
        if close.size == 0:
            return _no_terms()
        n = target.normals_flat.take(pixels.take(close), axis=0)
        diff = diff.take(close, axis=0)
        r = n[:, 0] * diff[:, 0] + n[:, 1] * diff[:, 1] + n[:, 2] * diff[:, 2]
        J = _jacobian(n, p.take(close, axis=0))
        # The mean, as np.mean computes it.
        return J.T @ J, J.T @ r, float(np.add.reduce(r * r)) / r.size, int(r.size)

    def _photometric_terms(
        self, pts_world: np.ndarray, proj: _Projection, obs_intensity: np.ndarray, target: _TargetView
    ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """Photometric (direct) normal equations against a reference view.

        ``proj`` is :func:`_project` of ``pts_world`` in the target's camera
        frame.
        """
        cam = target.camera
        pts_ref, z, u, v = proj
        # The bounds tests also reject NaN and infinite coordinates.
        hit = ((z > 0.05) & (u >= 1) & (u <= cam.width - 2) & (v >= 1) & (v <= cam.height - 2)).nonzero()[0]
        if hit.size == 0:
            return _no_terms()
        sampled = bilinear_sample(target.samples, u.take(hit), v.take(hit))
        gfx, gfy = sampled[:, 1] * cam.fx, sampled[:, 2] * cam.fy
        r = sampled[:, 0] - obs_intensity.take(hit)
        zv, xv, yv = z.take(hit), pts_ref[:, 0].take(hit), pts_ref[:, 1].take(hit)
        # d(residual)/d(point in reference camera frame)
        d_ref = np.empty((hit.size, 3))
        d_ref[:, 0] = gfx / zv
        d_ref[:, 1] = gfy / zv
        d_ref[:, 2] = -(gfx * xv + gfy * yv) / (zv * zv)
        # Chain rule to world coordinates, then to the twist.
        J = _jacobian(d_ref @ target.R_wc, pts_world.take(hit, axis=0))
        # Robust weighting: downweight large photometric residuals (occlusions).
        huber = 0.1
        abs_r = np.abs(r)
        w = np.where(abs_r < huber, 1.0, huber / np.maximum(abs_r, 1e-9))
        Jw = J * w[:, None]
        return Jw.T @ J, Jw.T @ r, float(np.add.reduce(w * r * r)) / r.size, int(r.size)

    def _so3_prealign(
        self,
        pts_cam: np.ndarray,
        obs: np.ndarray,
        camera: CameraIntrinsics,
        target: _TargetView,
        initial_pose: np.ndarray,
        iterations: int = 3,
    ) -> Tuple[np.ndarray, int]:
        """Rotation-only photometric alignment at the coarsest pyramid level."""
        T = np.array(initial_pose, dtype=np.float64)
        if pts_cam.shape[0] < 12:
            return T, 0
        scaled_target = target.downsampled(max(target.camera.width // camera.width, 1))
        n_done = 0
        for _ in range(iterations):
            pts_world = se3.transform_points(T, pts_cam)
            proj = _project(scaled_target.camera, se3.transform_points(scaled_target.T_wc, pts_world))
            JtJ, Jtr, _, n_terms = self._photometric_terms(pts_world, proj, obs, scaled_target)
            if n_terms < 6:
                break
            # Keep only the rotational block.
            A = JtJ[3:, 3:] + _SO3_DAMPING
            b = Jtr[3:]
            try:
                w = np.linalg.solve(A, -b)
            except np.linalg.LinAlgError:
                break
            T = se3.exp_se3(np.concatenate([np.zeros(3), w])) @ T
            n_done += 1
        return T, n_done

    # -- main loop -----------------------------------------------------------------------
    def run(self, dataset: SyntheticRGBDDataset, n_frames: Optional[int] = None) -> PipelineResult:
        """Process ``dataset`` and return the pipeline result."""
        cfg = self.config
        total = len(dataset) if n_frames is None else min(n_frames, len(dataset))
        if total < 1:
            raise ValueError("dataset must contain at least one frame")
        camera = dataset.camera
        surfels = SurfelMap(merge_distance=self.surfel_merge_distance)
        estimated = Trajectory()
        frames: List[FrameStats] = []

        nominal_pixels = NOMINAL_SENSOR_WIDTH * NOMINAL_SENSOR_HEIGHT
        sim_pixels = camera.n_pixels
        nominal_scale = nominal_pixels / max(sim_pixels, 1)

        pose = np.array(dataset.trajectory[0])
        prev_view: Optional[_TargetView] = None
        last_accepted_pose = pose.copy()

        for i in range(total):
            frame = dataset.frame(i)
            inputs = self._frame_inputs(frame.depth, frame.intensity, camera)
            stats = FrameStats(index=i, n_pixels=nominal_pixels)

            # The previous pose estimate is the tracking initialization; at
            # 30 FPS the inter-frame motion is small enough that a constant
            # position model is robust (a velocity model amplifies any jump in
            # the previous estimates).
            predicted = pose
            new_pose = predicted

            if i > 0:
                # Choose tracking targets according to the loop-closure flags.
                # Model-based tracking requires the predicted model view to
                # cover enough of the current image; otherwise (bootstrap, fast
                # exploration of unseen areas) fall back to frame-to-frame.
                geometric_target = prev_view
                if not cfg.open_loop and surfels.n_active(cfg.confidence_threshold) >= 100:
                    model_view = self._view_from_model(surfels, camera, predicted)
                    observed = float(inputs.n_observed)
                    coverage = float(np.count_nonzero(model_view.valid)) / max(observed, 1.0)
                    if coverage >= self.min_model_coverage:
                        geometric_target = model_view
                if cfg.frame_to_frame_rgb or cfg.open_loop:
                    photometric_target = prev_view
                else:
                    photometric_target = geometric_target
                if geometric_target is None or photometric_target is None:
                    geometric_target = prev_view
                    photometric_target = prev_view

                if geometric_target is not None and photometric_target is not None:
                    T, track_stats = self._joint_tracking(
                        inputs,
                        geometric_target,
                        photometric_target,
                        predicted,
                        rotation_only_first=cfg.so3_prealignment,
                    )
                    stats.tracked = True
                    stats.icp_iterations = int(track_stats["icp_iterations"])
                    stats.rgb_iterations = int(track_stats["rgb_iterations"])
                    stats.icp_error = float(track_stats["error"])
                    stats.so3_used = cfg.so3_prealignment
                    stats.extra["so3_iterations"] = float(track_stats["so3_iterations"])
                    rmse = float(np.sqrt(track_stats["error"])) if np.isfinite(track_stats["error"]) else np.inf
                    accepted = rmse <= self.tracking_failure_rmse and track_stats["inliers"] >= self.min_inlier_fraction
                    if not accepted and cfg.relocalisation:
                        # Relocalisation: retry against the global model from the
                        # last accepted pose with extra iterations.
                        reloc_target = (
                            self._view_from_model(surfels, camera, last_accepted_pose)
                            if surfels.n_active(cfg.confidence_threshold) >= 100
                            else geometric_target
                        )
                        T_retry, retry_stats = self._joint_tracking(
                            inputs,
                            reloc_target,
                            reloc_target,
                            last_accepted_pose,
                            rotation_only_first=True,
                        )
                        stats.relocalised = True
                        stats.icp_iterations += int(retry_stats["icp_iterations"])
                        stats.rgb_iterations += int(retry_stats["rgb_iterations"])
                        retry_rmse = (
                            float(np.sqrt(retry_stats["error"])) if np.isfinite(retry_stats["error"]) else np.inf
                        )
                        if retry_rmse < rmse:
                            T, rmse = T_retry, retry_rmse
                            accepted = rmse <= self.tracking_failure_rmse
                    if accepted:
                        new_pose = T
                        stats.tracking_accepted = True
                        last_accepted_pose = T
                    else:
                        new_pose = predicted
                        stats.tracking_accepted = False

            # Fusion of the current frame into the surfel map (every frame).
            # Observations are associated with existing surfels projectively
            # (as in ElasticFusion): if the model already has a compatible
            # surfel at the observed pixel, that surfel is refined; otherwise a
            # new surfel is created.  This prevents the "double crust" of
            # duplicated surfaces a naive world-space merge would build up.
            pts_world = se3.transform_points(new_pose, inputs.fused_points)
            nrm_world = se3.rotate_vectors(new_pose, inputs.fused_normals)
            obs_intensity = inputs.fused_intensity
            n_updated, n_added = 0, 0
            new = np.ones(pts_world.shape[0], dtype=bool)
            if surfels.n_surfels > 0:
                assoc = surfels.predict_view(inputs.cams[0], new_pose, confidence_threshold=0.0, splat_radius=1)
                assoc_idx = assoc["index"].reshape(-1).take(inputs.fused_pixels)
                assoc_depth = assoc["depth"].reshape(-1).take(inputs.fused_pixels)
                close = np.abs(inputs.fused_depth - assoc_depth) < max(3.0 * self.surfel_merge_distance, 0.05)
                candidates = np.flatnonzero((assoc_idx >= 0) & close)
                # Compatible normals: their dot product (np.sum(axis=1),
                # written out) exceeds 0.4.
                m = surfels.normals.take(assoc_idx.take(candidates), axis=0)
                o = nrm_world.take(candidates, axis=0)
                compatible = m[:, 0] * o[:, 0] + m[:, 1] * o[:, 1] + m[:, 2] * o[:, 2] > 0.4
                update = candidates[compatible]
                if update.size:
                    n_updated = surfels.update_by_index(
                        assoc_idx.take(update),
                        pts_world.take(update, axis=0),
                        nrm_world.take(update, axis=0),
                        obs_intensity.take(update),
                        weight=self.confidence_per_observation,
                        frame_index=i,
                    )
                    new[update] = False
            if np.any(new):
                _, n_added = surfels.fuse(
                    pts_world[new],
                    nrm_world[new],
                    obs_intensity[new],
                    frame_index=i,
                    confidence_increment=self.confidence_per_observation,
                )
            if i % 10 == 9:
                surfels.decay_unstable(i)
            stats.integrated = True
            stats.integration_elements = int((n_updated + n_added) * nominal_scale)
            stats.n_surfels = int(surfels.n_surfels * nominal_scale)
            stats.n_tracking_points = int(inputs.n_observed * nominal_scale)
            stats.raycast_steps = int(surfels.n_active(cfg.confidence_threshold) * nominal_scale)

            prev_view = self._view_from_frame(inputs, new_pose)
            pose = new_pose
            estimated.append(pose)
            frames.append(stats)

        return PipelineResult(
            estimated=estimated,
            ground_truth=Trajectory(dataset.trajectory.poses[:total]),
            frames=frames,
            config=cfg.to_dict(),
            pipeline="elasticfusion",
        )


__all__ = ["ElasticFusionConfig", "ElasticFusion", "NOMINAL_SENSOR_WIDTH", "NOMINAL_SENSOR_HEIGHT"]
