"""SE(3) / SO(3) utilities used by tracking and trajectory handling.

Poses are represented as 4x4 homogeneous matrices ``T`` mapping points from
the camera frame to the world frame (``p_world = T @ [p_cam, 1]``).  The
exponential/logarithm maps are needed by the Gauss-Newton ICP update (twist
parameterization) and by trajectory interpolation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_EPS = 1e-12


def _constant(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


#: Read-only identities: tracking builds a few per Gauss-Newton step.
_EYE3 = _constant(np.eye(3))
_EYE4 = _constant(np.eye(4))


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector (so(3) hat operator)."""
    w0, w1, w2 = np.asarray(w, dtype=np.float64).reshape(3).tolist()
    return np.array(
        [
            [0.0, -w2, w1],
            [w2, 0.0, -w0],
            [-w1, w0, 0.0],
        ]
    )


def vee(W: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hat`."""
    W = np.asarray(W, dtype=np.float64)
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def exp_so3(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: rotation matrix for rotation vector ``w``."""
    w = np.asarray(w, dtype=np.float64).reshape(3)
    theta = float(np.linalg.norm(w))
    if theta < _EPS:
        return _EYE3 + hat(w)
    K = hat(w / theta)
    return _EYE3 + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def log_so3(R: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix (inverse of :func:`exp_so3`)."""
    R = np.asarray(R, dtype=np.float64)
    cos_theta = float(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    theta = float(np.arccos(cos_theta))
    if theta < _EPS:
        return vee(R - _EYE3)
    if abs(np.pi - theta) < 1e-6:
        # Near pi: extract axis from R + I.
        A = (R + _EYE3) / 2.0
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # Fix signs using off-diagonal entries.
        if axis[0] > _EPS:
            axis[1] = np.copysign(axis[1], A[0, 1])
            axis[2] = np.copysign(axis[2], A[0, 2])
        elif axis[1] > _EPS:
            axis[2] = np.copysign(axis[2], A[1, 2])
        norm = np.linalg.norm(axis)
        if norm > _EPS:
            axis = axis / norm
        return theta * axis
    return theta / (2.0 * np.sin(theta)) * vee(R - R.T)


def exp_se3(xi: np.ndarray) -> np.ndarray:
    """SE(3) exponential of a twist ``xi = [v, w]`` (translation first).

    Returns a 4x4 homogeneous transform.  Uses the closed-form left Jacobian
    so that small twists integrate translation correctly.
    """
    xi = np.asarray(xi, dtype=np.float64).reshape(6)
    v, w = xi[:3], xi[3:]
    # np.linalg.norm(w), as numpy computes it for a 1-D float vector.
    theta = math.sqrt(w.dot(w))
    T = _EYE4.copy()
    if theta < _EPS:
        W = hat(w)
        T[:3, :3] = _EYE3 + W
        V = _EYE3 + 0.5 * W
    else:
        # The rotation is exp_so3(w), sharing K and K @ K with V.
        K = hat(w / theta)
        KK = K @ K
        sin, cos = np.sin(theta), np.cos(theta)
        T[:3, :3] = _EYE3 + sin * K + (1.0 - cos) * KK
        V = _EYE3 + (1.0 - cos) / theta * K + (theta - sin) / theta * KK
    T[:3, 3] = V @ v
    return T


def log_se3(T: np.ndarray) -> np.ndarray:
    """Twist ``[v, w]`` of a homogeneous transform (inverse of :func:`exp_se3`)."""
    T = np.asarray(T, dtype=np.float64)
    R = T[:3, :3]
    t = T[:3, 3]
    w = log_so3(R)
    theta = float(np.linalg.norm(w))
    if theta < _EPS:
        V_inv = _EYE3 - 0.5 * hat(w)
    else:
        K = hat(w / theta)
        V = (
            _EYE3
            + (1.0 - np.cos(theta)) / theta * K
            + (theta - np.sin(theta)) / theta * (K @ K)
        )
        V_inv = np.linalg.inv(V)
    v = V_inv @ t
    return np.concatenate([v, w])


def make_pose(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 pose from rotation ``R`` and translation ``t``."""
    T = _EYE4.copy()
    T[:3, :3] = np.asarray(R, dtype=np.float64)
    T[:3, 3] = np.asarray(t, dtype=np.float64).reshape(3)
    return T


def invert(T: np.ndarray) -> np.ndarray:
    """Inverse of a rigid transform (exploiting orthonormality of R)."""
    T = np.asarray(T, dtype=np.float64)
    R = T[:3, :3]
    t = T[:3, 3]
    out = _EYE4.copy()
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ t
    return out


def transform_points(T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a rigid transform to an ``(..., 3)`` array of points."""
    T = np.asarray(T, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    return pts @ T[:3, :3].T + T[:3, 3]


def rotate_vectors(T: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Apply only the rotation of ``T`` to an ``(..., 3)`` array of vectors."""
    T = np.asarray(T, dtype=np.float64)
    return np.asarray(vectors, dtype=np.float64) @ T[:3, :3].T


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle (radians) of a rotation matrix."""
    return float(np.linalg.norm(log_so3(R)))


def translation_distance(T_a: np.ndarray, T_b: np.ndarray) -> float:
    """Euclidean distance between the translations of two poses."""
    return float(np.linalg.norm(np.asarray(T_a)[:3, 3] - np.asarray(T_b)[:3, 3]))


def relative_pose(T_a: np.ndarray, T_b: np.ndarray) -> np.ndarray:
    """Relative transform taking frame ``a`` to frame ``b``: ``inv(T_a) @ T_b``."""
    return invert(T_a) @ np.asarray(T_b, dtype=np.float64)


def interpolate_pose(T_a: np.ndarray, T_b: np.ndarray, alpha: float) -> np.ndarray:
    """Geodesic interpolation between two poses (``alpha`` in [0, 1])."""
    delta = log_se3(relative_pose(T_a, T_b))
    return np.asarray(T_a, dtype=np.float64) @ exp_se3(alpha * delta)


def look_at(eye: Sequence[float], target: Sequence[float], up: Sequence[float] = (0.0, -1.0, 0.0)) -> np.ndarray:
    """Camera-to-world pose looking from ``eye`` towards ``target``.

    Convention: camera +z looks forward (into the scene), +x right, +y down
    (standard pinhole/computer-vision convention), hence the default world
    "up" maps to camera -y.
    """
    eye = np.asarray(eye, dtype=np.float64).reshape(3)
    target = np.asarray(target, dtype=np.float64).reshape(3)
    up = np.asarray(up, dtype=np.float64).reshape(3)
    z = target - eye
    nz = np.linalg.norm(z)
    if nz < _EPS:
        raise ValueError("eye and target coincide")
    z = z / nz
    x = np.cross(-up, z)
    nx = np.linalg.norm(x)
    if nx < _EPS:
        # up parallel to viewing direction: pick an arbitrary orthogonal axis.
        x = np.cross(np.array([0.0, 0.0, 1.0]), z)
        nx = np.linalg.norm(x)
        if nx < _EPS:
            x = np.array([1.0, 0.0, 0.0])
            nx = 1.0
    x = x / nx
    y = np.cross(z, x)
    R = np.stack([x, y, z], axis=1)
    return make_pose(R, eye)


def is_rotation_matrix(R: np.ndarray, tol: float = 1e-6) -> bool:
    """Whether ``R`` is a proper rotation (orthonormal, determinant +1)."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        return False
    if not np.allclose(R @ R.T, _EYE3, atol=tol):
        return False
    return bool(np.isclose(np.linalg.det(R), 1.0, atol=tol))


def random_pose(rng: np.random.Generator, max_translation: float = 1.0, max_angle: float = np.pi) -> np.ndarray:
    """Random rigid transform with bounded translation and rotation angle."""
    axis = rng.normal(size=3)
    axis /= max(np.linalg.norm(axis), _EPS)
    angle = rng.uniform(-max_angle, max_angle)
    t = rng.uniform(-max_translation, max_translation, size=3)
    return make_pose(exp_so3(axis * angle), t)


__all__ = [
    "hat",
    "vee",
    "exp_so3",
    "log_so3",
    "exp_se3",
    "log_se3",
    "make_pose",
    "invert",
    "transform_points",
    "rotate_vectors",
    "rotation_angle",
    "translation_distance",
    "relative_pose",
    "interpolate_pose",
    "look_at",
    "is_rotation_matrix",
    "random_pose",
]
