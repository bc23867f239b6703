"""Camera trajectories: ground truth paths and estimated-trajectory containers.

``make_living_room_trajectory`` produces a smooth hand-held-style sweep through
the synthetic living room, standing in for ICL-NUIM "living room trajectory 2"
(the paper uses its first 400 frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.slam import se3
from repro.slam.se3 import look_at


@dataclass
class Trajectory:
    """An ordered list of camera-to-world poses (4x4 matrices)."""

    poses: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.poses = [np.asarray(p, dtype=np.float64).reshape(4, 4) for p in self.poses]

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.poses[idx]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.poses)

    def append(self, pose: np.ndarray) -> None:
        """Append a pose."""
        self.poses.append(np.asarray(pose, dtype=np.float64).reshape(4, 4))

    def positions(self) -> np.ndarray:
        """``(n, 3)`` array of camera positions."""
        if not self.poses:
            return np.empty((0, 3))
        return np.stack([p[:3, 3] for p in self.poses], axis=0)

    def translational_speed(self) -> np.ndarray:
        """Per-step translation magnitude (length ``n - 1``)."""
        pos = self.positions()
        if pos.shape[0] < 2:
            return np.empty(0)
        return np.linalg.norm(np.diff(pos, axis=0), axis=1)

    def rotational_speed(self) -> np.ndarray:
        """Per-step rotation angle in radians (length ``n - 1``)."""
        if len(self.poses) < 2:
            return np.empty(0)
        out = np.empty(len(self.poses) - 1)
        for i in range(len(self.poses) - 1):
            rel = se3.relative_pose(self.poses[i], self.poses[i + 1])
            out[i] = se3.rotation_angle(rel[:3, :3])
        return out

    def subsample(self, step: int) -> "Trajectory":
        """Every ``step``-th pose."""
        if step < 1:
            raise ValueError("step must be >= 1")
        return Trajectory(self.poses[::step])

    def relative_to_first(self) -> "Trajectory":
        """Express every pose relative to the first one (first becomes identity)."""
        if not self.poses:
            return Trajectory([])
        inv0 = se3.invert(self.poses[0])
        return Trajectory([inv0 @ p for p in self.poses])

    def copy(self) -> "Trajectory":
        """Deep copy."""
        return Trajectory([p.copy() for p in self.poses])


def make_living_room_trajectory(
    n_frames: int = 400,
    radius: float = 1.25,
    height: float = -0.15,
    sweep_degrees: Optional[float] = None,
    bob_amplitude: float = 0.08,
    target_drift: float = 0.5,
    seed: Optional[int] = None,
) -> Trajectory:
    """A smooth orbital sweep inside the living room, looking inward.

    The camera orbits the room centre at roughly ``radius`` metres while
    bobbing vertically and drifting its look-at target, producing the mix of
    rotation and translation typical of the hand-held ICL-NUIM sequences.
    An optional tiny deterministic jitter (seeded) emulates hand shake.

    Parameters
    ----------
    n_frames:
        Number of poses (the paper uses the first 400 frames; the reduced-scale
        experiments use fewer).
    radius, height, sweep_degrees, bob_amplitude, target_drift:
        Shape of the sweep.  ``sweep_degrees=None`` scales the sweep with the
        sequence length so that the *per-frame* camera motion matches a 30 FPS
        hand-held recording regardless of how many frames are simulated.
    seed:
        Optional seed for the small hand-shake jitter; ``None`` disables it.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    # Motion rates are defined per second of a 30 FPS recording so that the
    # per-frame camera motion matches a real hand-held sequence no matter how
    # many frames are simulated.
    fps = 30.0
    t_sec = np.arange(n_frames) / fps
    duration = max(t_sec[-1], 1e-6)
    if sweep_degrees is None:
        sweep_degrees = float(min(14.0 * duration, 230.0))
    t = t_sec / duration
    angle = np.deg2rad(sweep_degrees) * t + 0.4
    # Camera position: ellipse-ish orbit with gentle bobbing (y is down).
    px = radius * np.cos(angle) * 1.15
    pz = radius * np.sin(angle) * 0.95
    py = height + bob_amplitude * np.sin(2.0 * np.pi * 0.35 * t_sec)
    # Look-at target drifts around the middle of the room at table height.
    tx = target_drift * np.cos(2.0 * np.pi * 0.12 * t_sec + 1.0) * 0.6
    tz = target_drift * np.sin(2.0 * np.pi * 0.09 * t_sec) * 0.8
    ty = 0.55 + 0.15 * np.sin(2.0 * np.pi * 0.17 * t_sec)

    jitter = np.zeros((n_frames, 3))
    if seed is not None:
        rng = np.random.default_rng(seed)
        raw = rng.normal(scale=0.004, size=(n_frames, 3))
        # Low-pass the jitter so consecutive frames stay consistent.  The
        # kernel never exceeds the sequence length (np.convolve in "same" mode
        # returns max(M, N) samples, which would break very short sequences).
        k = min(5, n_frames)
        kernel = np.ones(k) / k
        for axis in range(3):
            jitter[:, axis] = np.convolve(raw[:, axis], kernel, mode="same")

    poses = []
    for i in range(n_frames):
        eye = np.array([px[i], py[i], pz[i]]) + jitter[i]
        target = np.array([tx[i], ty[i], tz[i]])
        poses.append(look_at(eye, target))
    return Trajectory(poses)


def make_orbit_trajectory(
    n_frames: int,
    center: Sequence[float] = (0.0, 0.4, 0.0),
    radius: float = 1.5,
    height: float = -0.2,
    revolutions: float = 0.75,
) -> Trajectory:
    """A clean circular orbit (no jitter), useful for unit tests."""
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    center = np.asarray(center, dtype=np.float64)
    t = np.linspace(0.0, 1.0, n_frames)
    angle = 2.0 * np.pi * revolutions * t
    poses = []
    for a in angle:
        eye = center + np.array([radius * np.cos(a), height, radius * np.sin(a)])
        poses.append(look_at(eye, center))
    return Trajectory(poses)


def make_static_trajectory(n_frames: int, pose: Optional[np.ndarray] = None) -> Trajectory:
    """A trajectory that does not move (degenerate case used in tests)."""
    if pose is None:
        pose = look_at((1.2, -0.1, 0.0), (0.0, 0.5, 0.0))
    return Trajectory([np.array(pose) for _ in range(n_frames)])


__all__ = [
    "Trajectory",
    "make_living_room_trajectory",
    "make_orbit_trajectory",
    "make_static_trajectory",
]
