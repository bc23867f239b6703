"""Synthetic RGB-D dataset generation (the ICL-NUIM stand-in).

Frames are rendered lazily by sphere tracing the analytic scene SDF from the
ground-truth pose, converting ray lengths to z-depth, sampling the procedural
intensity at the hit points, and corrupting the result with the Kinect noise
model.  Rendered frames are cached on the dataset object so that the many
configuration evaluations of a design-space exploration re-use the same
frames.  Products derived from a frame that do not depend on the evaluated
configuration (KinectFusion's filtered depth pyramid) are memoized next to
the frames with :meth:`SyntheticRGBDDataset.derived`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, TypeVar

import numpy as np

from repro.slam.camera import CameraIntrinsics
from repro.slam.noise import KinectNoiseModel
from repro.slam.scene import Scene, make_living_room_scene
from repro.slam.se3 import rotate_vectors, transform_points
from repro.slam.trajectory import Trajectory, make_living_room_trajectory
from repro.utils.rng import derive_seed

T = TypeVar("T")


@dataclass
class RGBDFrame:
    """One synthetic RGB-D frame.

    Attributes
    ----------
    index:
        Frame index in the sequence.
    depth:
        Noisy z-depth map in metres, ``(H, W)``; 0 marks invalid pixels.
    intensity:
        Grayscale image in ``[0, 1]``, ``(H, W)``.
    gt_pose:
        Ground-truth camera-to-world pose (4x4).
    clean_depth:
        Noise-free depth (kept for diagnostics and tests).
    """

    index: int
    depth: np.ndarray
    intensity: np.ndarray
    gt_pose: np.ndarray
    clean_depth: np.ndarray

    @property
    def valid_mask(self) -> np.ndarray:
        """Mask of pixels with a valid depth return."""
        return self.depth > 0


class SyntheticRGBDDataset:
    """Lazy, cached renderer of a synthetic RGB-D sequence.

    Parameters
    ----------
    scene:
        Analytic SDF scene.
    trajectory:
        Ground-truth camera trajectory (one pose per frame).
    camera:
        Intrinsics of the rendered frames (this is the *simulation* resolution;
        the device runtime model always reasons about the nominal full sensor
        resolution, see :mod:`repro.slambench.workload`).
    noise:
        Depth noise model applied to the rendered depth.
    seed:
        Seed for the per-frame noise streams (frame ``i`` always receives the
        same noise regardless of evaluation order).
    """

    def __init__(
        self,
        scene: Scene,
        trajectory: Trajectory,
        camera: CameraIntrinsics,
        noise: Optional[KinectNoiseModel] = None,
        seed: int = 0,
        max_render_depth: float = 12.0,
    ) -> None:
        if len(trajectory) == 0:
            raise ValueError("trajectory must contain at least one pose")
        self.scene = scene
        self.trajectory = trajectory
        self.camera = camera
        self.noise = noise if noise is not None else KinectNoiseModel()
        self.seed = int(seed)
        self.max_render_depth = float(max_render_depth)
        self._cache: Dict[int, RGBDFrame] = {}
        self._derived: Dict[Hashable, Any] = {}
        self._ray_dirs_cam = camera.ray_directions()

    # -- sequence protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.trajectory)

    def __iter__(self) -> Iterator[RGBDFrame]:
        for i in range(len(self)):
            yield self.frame(i)

    def __getitem__(self, index: int) -> RGBDFrame:
        return self.frame(index)

    # -- rendering -----------------------------------------------------------------
    def frame(self, index: int) -> RGBDFrame:
        """Render (or fetch from cache) frame ``index``."""
        if index < 0 or index >= len(self):
            raise IndexError(f"frame index {index} out of range (0..{len(self) - 1})")
        if index not in self._cache:
            self._cache[index] = self._render(index)
        return self._cache[index]

    def prerender(self) -> None:
        """Render every frame eagerly (useful before timing experiments)."""
        for i in range(len(self)):
            self.frame(i)

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Memoized ``compute()``: a product derived from this dataset's frames.

        For per-frame preprocessing that every configuration evaluation
        repeats identically.  ``key`` must name the product and everything it
        depends on (frame index, parameters).  The memo is emptied by
        :meth:`clear_cache`.  Callers must not mutate a
        returned product: the next evaluation receives the same object.
        Threads racing on a missing key may each compute it, but
        ``setdefault`` hands all of them the one product that was stored.
        """
        try:
            return self._derived[key]
        except KeyError:
            return self._derived.setdefault(key, compute())

    def clear_cache(self) -> None:
        """Drop all cached frames and derived products (frees memory)."""
        self._cache.clear()
        self._derived.clear()

    def ground_truth(self) -> Trajectory:
        """The ground-truth trajectory."""
        return self.trajectory.copy()

    def _render(self, index: int) -> RGBDFrame:
        pose = self.trajectory[index]
        dirs_world = rotate_vectors(pose, self._ray_dirs_cam)
        origin = pose[:3, 3]
        t, hit = self.scene.raycast(
            origin.reshape(1, 1, 3),
            dirs_world,
            max_depth=self.max_render_depth,
            max_steps=96,
            tolerance=1e-3,
        )
        # Convert ray length to z-depth (depth maps store the z coordinate).
        z_axis = self._ray_dirs_cam[..., 2]
        clean_depth = np.where(hit, t * z_axis, 0.0)

        hit_points = origin + t[..., None] * dirs_world
        intensity = np.where(hit, self.scene.intensity(hit_points), 0.0)

        # Incidence cosine for grazing-angle dropout.
        normals = self.scene.gradient(hit_points)
        incidence_cos = np.abs(np.sum(normals * dirs_world, axis=-1))

        frame_seed = derive_seed(self.seed, "frame", index)
        depth = self.noise.apply(clean_depth, rng=frame_seed, incidence_cos=np.where(hit, incidence_cos, 1.0))
        intensity = self.noise.apply_intensity(intensity, rng=derive_seed(frame_seed, "intensity"))
        return RGBDFrame(
            index=index,
            depth=depth,
            intensity=intensity,
            gt_pose=np.array(pose),
            clean_depth=clean_depth,
        )


def make_icl_nuim_like_dataset(
    n_frames: int = 120,
    width: int = 80,
    height: int = 60,
    seed: int = 0,
    noise: Optional[KinectNoiseModel] = None,
    scene: Optional[Scene] = None,
    trajectory: Optional[Trajectory] = None,
) -> SyntheticRGBDDataset:
    """Factory for the standard synthetic living-room sequence.

    ``width``/``height`` control the *simulation* resolution (the default
    80x60 keeps a full sequence evaluation in the tens of milliseconds); the
    nominal sensor remains 640x480 for runtime modelling purposes.
    """
    scene = scene if scene is not None else make_living_room_scene()
    trajectory = trajectory if trajectory is not None else make_living_room_trajectory(n_frames=n_frames, seed=derive_seed(seed, "trajectory"))
    camera = CameraIntrinsics.kinect_like(width=width, height=height)
    return SyntheticRGBDDataset(scene, trajectory, camera, noise=noise, seed=seed)


__all__ = ["RGBDFrame", "SyntheticRGBDDataset", "make_icl_nuim_like_dataset"]
