"""Analytic signed-distance-function scenes.

The paper evaluates on the ICL-NUIM synthetic living-room dataset (trajectory
2, first 400 frames).  That dataset is itself rendered from a synthetic 3D
living-room model, so we substitute an analytic constructive-solid-geometry
scene: a room (floor, ceiling, walls) furnished with boxes, spheres and
cylinders.  Depth frames are rendered by sphere tracing the scene SDF
(:meth:`Scene.raycast`, called by :mod:`repro.slam.dataset`), and a
procedural albedo/texture function provides the intensity channel needed by
ElasticFusion's photometric tracking.  The tracer steps only the rays still
live, with the per-ray operations of a tracer that steps every ray under a
mask.

All SDF evaluations are vectorized over ``(..., 3)`` point arrays and also
return analytic gradients (needed by the ICP Gauss-Newton step).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple, Union

import numpy as np

_EPS = 1e-9
_AXES = np.arange(3)


class SdfPrimitive(ABC):
    """A solid with a signed distance function and analytic gradient."""

    def __init__(self, albedo: float = 0.7, texture_scale: float = 4.0) -> None:
        if not (0.0 < albedo <= 1.0):
            raise ValueError("albedo must be in (0, 1]")
        self.albedo = float(albedo)
        self.texture_scale = float(texture_scale)

    @abstractmethod
    def sdf(self, points: np.ndarray) -> np.ndarray:
        """Signed distance of ``(..., 3)`` points (negative inside)."""

    @abstractmethod
    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Gradient of the SDF at ``(..., 3)`` points (unit length almost everywhere)."""


class Plane(SdfPrimitive):
    """Half-space bounded by a plane ``n . p = d`` (inside where ``n.p < d``)."""

    def __init__(self, normal: Sequence[float], offset: float, albedo: float = 0.7, texture_scale: float = 2.0) -> None:
        super().__init__(albedo, texture_scale)
        n = np.asarray(normal, dtype=np.float64).reshape(3)
        norm = np.linalg.norm(n)
        if norm < _EPS:
            raise ValueError("plane normal must be non-zero")
        self.normal = n / norm
        self.offset = float(offset)

    def sdf(self, points: np.ndarray) -> np.ndarray:
        return _plane_sdf(np.asarray(points, dtype=np.float64), self.normal, self.offset)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return np.broadcast_to(self.normal, pts.shape).copy()


def _norm3(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1)`` of ``(..., 3)`` vectors, bit for bit.

    numpy squares the components and sums the three squares left to right;
    written out, the sum takes the same roundings without a 3-wide ``reduce``.
    """
    s = v * v
    return np.sqrt(s[..., 0] + s[..., 1] + s[..., 2])


def _plane_sdf(pts: np.ndarray, normal: np.ndarray, offset: Union[float, np.ndarray]) -> np.ndarray:
    """Plane SDF ``n . p - d``; ``normal[..., :]``/``offset`` broadcast against the points.

    Written as elementwise products rather than a matrix product, so one
    plane and a stack of planes give the same bits whatever BLAS kernel a
    matrix product would pick.
    """
    return pts[..., 0] * normal[..., 0] + pts[..., 1] * normal[..., 1] + pts[..., 2] * normal[..., 2] - offset


class Sphere(SdfPrimitive):
    """Solid sphere."""

    def __init__(self, center: Sequence[float], radius: float, albedo: float = 0.7, texture_scale: float = 6.0) -> None:
        super().__init__(albedo, texture_scale)
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = np.asarray(center, dtype=np.float64).reshape(3)
        self.radius = float(radius)

    def sdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return _norm3(pts - self.center) - self.radius

    def gradient(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        diff = pts - self.center
        norm = _norm3(diff)[..., None]
        return diff / np.maximum(norm, _EPS)


class Box(SdfPrimitive):
    """Axis-aligned solid box."""

    def __init__(self, center: Sequence[float], half_extents: Sequence[float], albedo: float = 0.7, texture_scale: float = 5.0) -> None:
        super().__init__(albedo, texture_scale)
        self.center = np.asarray(center, dtype=np.float64).reshape(3)
        self.half_extents = np.asarray(half_extents, dtype=np.float64).reshape(3)
        if np.any(self.half_extents <= 0):
            raise ValueError("half extents must be positive")

    def sdf(self, points: np.ndarray) -> np.ndarray:
        # One leading axis more, so that even a single point's temporaries
        # are arrays ``_box_sdf`` can write into.
        pts = np.asarray(points, dtype=np.float64)[None]
        lead = (1,) * (pts.ndim - 1)
        return _box_sdf(np.moveaxis(pts, -1, 0), self.center.reshape(3, *lead), self.half_extents.reshape(3, *lead))[0]

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return _box_gradient(np.asarray(points, dtype=np.float64), self.center, self.half_extents)


def _box_sdf(p: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Box SDF of axis-first points: ``p[k]`` holds coordinate ``k``, and
    ``center[k]``/``half_extents[k]`` broadcast against it.

    The operations of ``q = |p - c| - h``, ``norm(max(q, 0)) + min(max(q), 0)``
    in the same order, on one ``(k, N)`` block per axis: the norm and the max
    over the three axes are written out instead of 3-wide reductions, and
    each step writes into a temporary it no longer needs.
    """
    q = np.subtract(p, center)
    np.abs(q, out=q)
    q -= half_extents
    inside = np.maximum(q[0], q[1])
    np.maximum(inside, q[2], out=inside)
    np.minimum(inside, 0.0, out=inside)
    np.maximum(q, 0.0, out=q)
    q *= q
    out = np.add(q[0], q[1])
    out += q[2]
    np.sqrt(out, out=out)
    out += inside
    return out


def _box_gradient(pts: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Box SDF gradient; ``center``/``half_extents`` broadcast against ``(..., 3)`` points."""
    local = pts - center
    q = np.abs(local) - half_extents
    sign = np.where(local >= 0, 1.0, -1.0)
    outside_vec = np.maximum(q, 0.0) * sign
    outside_norm = _norm3(outside_vec)[..., None]
    grad_out = outside_vec / np.maximum(outside_norm, _EPS)
    # Inside: gradient points along the axis of smallest penetration.
    grad_in = np.where(np.argmax(q, axis=-1)[..., None] == _AXES, sign, 0.0)
    return np.where(outside_norm < _EPS, grad_in, grad_out)


class Cylinder(SdfPrimitive):
    """Solid vertical (y-axis) capped cylinder."""

    def __init__(self, center: Sequence[float], radius: float, half_height: float, albedo: float = 0.7, texture_scale: float = 6.0) -> None:
        super().__init__(albedo, texture_scale)
        if radius <= 0 or half_height <= 0:
            raise ValueError("radius and half_height must be positive")
        self.center = np.asarray(center, dtype=np.float64).reshape(3)
        self.radius = float(radius)
        self.half_height = float(half_height)

    def sdf(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64) - self.center
        x, z = pts[..., 0], pts[..., 2]
        radial = np.sqrt(x * x + z * z) - self.radius
        vertical = np.abs(pts[..., 1]) - self.half_height
        a, b = np.maximum(radial, 0.0), np.maximum(vertical, 0.0)
        outside = np.sqrt(a * a + b * b)
        inside = np.minimum(np.maximum(radial, vertical), 0.0)
        return outside + inside

    def gradient(self, points: np.ndarray) -> np.ndarray:
        # Numerical central differences: the cylinder is used sparingly and the
        # analytic branch structure is not worth the complexity.
        return _numerical_gradient(self.sdf, points)


def _numerical_gradient(fn, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    grad = np.zeros_like(pts)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        grad[..., axis] = (fn(pts + offset) - fn(pts - offset)) / (2.0 * h)
    norm = _norm3(grad)[..., None]
    return grad / np.maximum(norm, _EPS)


#: Packed primitive types of :class:`Scene`.
_PLANE, _BOX, _OTHER = 0, 1, 2


def _flatten(points: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """``(..., 3)`` points as an ``(N, 3)`` array, plus the leading shape."""
    pts = np.asarray(points, dtype=np.float64)
    return pts.reshape(-1, 3), pts.shape[:-1]


class Scene:
    """Union of SDF primitives with a procedural intensity (albedo) function.

    The scene SDF is the pointwise minimum over primitives; gradients and
    intensities are taken from the primitive realizing the minimum (the first
    one on ties).

    The union is evaluated packed by primitive type: planes as one normal
    matrix, boxes as stacked centre/half-extent arrays, and every other
    primitive through its own :meth:`~SdfPrimitive.sdf`/``gradient``.  Each
    packed type runs the same elementwise operations as its primitive class,
    so the results are bit-identical to evaluating the primitives one by one.
    """

    def __init__(self, primitives: Sequence[SdfPrimitive], name: str = "scene") -> None:
        if len(primitives) == 0:
            raise ValueError("a scene needs at least one primitive")
        self.primitives: List[SdfPrimitive] = list(primitives)
        self.name = name
        self._pack()

    def _pack(self) -> None:
        prims = self.primitives
        kind = np.array([_PLANE if type(p) is Plane else _BOX if type(p) is Box else _OTHER for p in prims], dtype=np.int8)
        self._plane_rows = np.flatnonzero(kind == _PLANE)
        self._box_rows = np.flatnonzero(kind == _BOX)
        self._other_rows = [int(i) for i in np.flatnonzero(kind == _OTHER)]
        self._plane_normals = np.array([prims[i].normal for i in self._plane_rows]).reshape(-1, 3)
        self._plane_offsets = np.array([prims[i].offset for i in self._plane_rows])
        # Box parameters axis first, ``(3, n_boxes, 1)``, for :func:`_box_sdf`.
        box_centers = np.array([prims[i].center for i in self._box_rows]).reshape(-1, 3)
        box_half_extents = np.array([prims[i].half_extents for i in self._box_rows]).reshape(-1, 3)
        self._box_centers = np.ascontiguousarray(box_centers.T[:, :, None])
        self._box_half_extents = np.ascontiguousarray(box_half_extents.T[:, :, None])
        # Per-primitive tables gathered by each point's winner: plane normals
        # (zero for other primitives), box centres and half extents.
        self._normals = np.zeros((len(prims), 3))
        self._normals[self._plane_rows] = self._plane_normals
        self._centers = np.zeros((len(prims), 3))
        self._centers[self._box_rows] = box_centers
        self._half_extents = np.zeros((len(prims), 3))
        self._half_extents[self._box_rows] = box_half_extents
        self._is_box = kind == _BOX
        # Where each primitive's SDF row comes from, in primitive order: a
        # row of the plane block, of the box block, or the primitive itself.
        block_row = np.zeros(len(prims), dtype=np.intp)
        block_row[self._plane_rows] = np.arange(self._plane_rows.size)
        block_row[self._box_rows] = np.arange(self._box_rows.size)
        block_row[self._other_rows] = self._other_rows
        self._row_sources = [(int(k), int(i)) for k, i in zip(kind, block_row)]
        self._albedo = np.array([p.albedo for p in prims])
        self._texture_scale = np.array([p.texture_scale for p in prims])

    def _packed(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(n_planes, N)`` and ``(n_boxes, N)`` SDF values of ``(N, 3)`` points."""
        planes = _plane_sdf(pts, self._plane_normals[:, None, :], self._plane_offsets[:, None])
        return planes, _box_sdf(pts.T[:, None, :], self._box_centers, self._box_half_extents)

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """``(n_primitives, N)`` SDF values of ``(N, 3)`` points, rows in primitive order."""
        values = np.empty((len(self.primitives), pts.shape[0]))
        values[self._plane_rows], values[self._box_rows] = self._packed(pts)
        for row in self._other_rows:
            values[row] = self.primitives[row].sdf(pts)
        return values

    # -- SDF queries -----------------------------------------------------------
    def sdf(self, points: np.ndarray) -> np.ndarray:
        """Signed distance of the union at ``(..., 3)`` points.

        A running ``np.minimum`` over the primitives' rows in primitive
        order.  numpy takes ``min(axis=0)`` of an ``(n_primitives, N)``
        value matrix one row at a time in that order, so this is the same
        reduction bit for bit (±0.0 ties and NaN payloads included), without
        the matrix.  A single point's column is one contiguous run, which
        numpy reduces in SIMD lanes instead, so it keeps the matrix.
        """
        pts, shape = _flatten(points)
        if pts.shape[0] == 1:
            return self._values(pts).min(axis=0).reshape(shape)
        blocks = self._packed(pts)
        rows = (self.primitives[i].sdf(pts) if kind == _OTHER else blocks[kind][i] for kind, i in self._row_sources)
        out = np.array(next(rows), dtype=np.float64)
        for row in rows:
            np.minimum(out, row, out=out)
        return out.reshape(shape)

    def sdf_and_gradient(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Signed distance and (unit) gradient of the union."""
        pts, shape = _flatten(points)
        values = self._values(pts)
        winner = values.argmin(axis=0)
        n = pts.shape[0]
        dist = values.take(winner * n + np.arange(n))  # values[winner[i], i]
        grad = self._normals.take(winner, axis=0)
        boxes = np.flatnonzero(self._is_box.take(winner))
        if boxes.size:
            b = winner.take(boxes)
            grad[boxes] = _box_gradient(pts.take(boxes, axis=0), self._centers.take(b, axis=0), self._half_extents.take(b, axis=0))
        for row in self._other_rows:
            rows = np.flatnonzero(winner == row)
            if rows.size:
                grad[rows] = self.primitives[row].gradient(pts.take(rows, axis=0))
        return dist.reshape(shape), grad.reshape(*shape, 3)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Unit gradient (outward surface normal on the surface)."""
        return self.sdf_and_gradient(points)[1]

    def normals(self, points: np.ndarray) -> np.ndarray:
        """Alias of :meth:`gradient` for readability at surface points."""
        return self.gradient(points)

    # -- appearance ------------------------------------------------------------
    def intensity(self, points: np.ndarray) -> np.ndarray:
        """Procedural grayscale intensity in [0, 1] at ``(..., 3)`` points.

        Each primitive has a base albedo modulated by a smooth sinusoidal
        texture, giving the photometric term of ElasticFusion useful gradients
        everywhere (the real living-room dataset is similarly textured).
        """
        pts, shape = _flatten(points)
        winner = self._values(pts).argmin(axis=0)
        s = self._texture_scale[winner]
        tex = (
            0.5
            + 0.25 * np.sin(s * pts[:, 0]) * np.cos(s * pts[:, 2])
            + 0.15 * np.sin(0.7 * s * pts[:, 1] + 1.3)
        )
        return np.clip(self._albedo[winner] * tex, 0.0, 1.0).reshape(shape)

    # -- ray casting ------------------------------------------------------------
    def raycast(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        max_depth: float = 10.0,
        max_steps: int = 64,
        tolerance: float = 1e-3,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sphere-trace rays and return hit distance along each ray and a hit mask.

        ``origins`` and ``directions`` are broadcast-compatible ``(..., 3)``
        arrays; directions must be unit length.

        Each step evaluates the scene at ``o + t * d`` of every live ray and
        advances it by ``max(dist, tolerance / 2)``.  A ray is hit when that
        distance is below ``tolerance`` (its ``t`` keeps the step it took
        there) and stops being live when it is hit, when ``t`` reaches
        ``max_depth`` (or is NaN), or after ``max_steps`` steps.  Only the live
        rays are stepped: they are compacted after every step that retires
        one, so late steps cost what their few remaining rays cost.
        """
        o = np.asarray(origins, dtype=np.float64)
        d = np.asarray(directions, dtype=np.float64)
        o, d = np.broadcast_arrays(o, d)
        shape = o.shape[:-1]
        # Axis first, ``(3, n)``: the scene reads one coordinate at a time.
        o, d = o.reshape(-1, 3).T, np.ascontiguousarray(d.reshape(-1, 3).T)
        n = d.shape[1]
        t = np.zeros(n)
        hit = np.zeros(n, dtype=bool)
        live, live_t = np.arange(n), np.zeros(n)
        for _ in range(max_steps):
            if live.size == 0:
                break
            dist = self.sdf((o + live_t * d).T)
            live_t += np.maximum(dist, tolerance * 0.5)
            hit_now = dist < tolerance
            hit[live[hit_now]] = True
            keep = ~hit_now & (live_t < max_depth)
            if not keep.all():
                done = ~keep
                t[live[done]] = live_t[done]
                live, o, d, live_t = live[keep], o[:, keep], d[:, keep], live_t[keep]
        t[live] = live_t
        return t.reshape(shape), hit.reshape(shape)


def make_living_room_scene() -> Scene:
    """The synthetic stand-in for the ICL-NUIM living room.

    A 5 m x 2.6 m x 4.5 m room (y is down, floor at y = +1.3) furnished with a
    table, a sofa (two boxes), a sideboard, a ball and a floor lamp.  The
    furniture breaks the symmetry of the room so that ICP is well conditioned
    in every viewing direction.
    """
    half_x, half_y, half_z = 2.5, 1.3, 2.25
    primitives: List[SdfPrimitive] = [
        # Room shell: six inward-facing half-spaces.
        Plane(normal=(0.0, -1.0, 0.0), offset=-half_y, albedo=0.55, texture_scale=1.5),   # floor (y = +1.3)
        Plane(normal=(0.0, 1.0, 0.0), offset=-half_y, albedo=0.9, texture_scale=1.0),     # ceiling (y = -1.3)
        Plane(normal=(1.0, 0.0, 0.0), offset=-half_x, albedo=0.75, texture_scale=2.0),    # wall x = -2.5
        Plane(normal=(-1.0, 0.0, 0.0), offset=-half_x, albedo=0.65, texture_scale=2.5),   # wall x = +2.5
        Plane(normal=(0.0, 0.0, 1.0), offset=-half_z, albedo=0.8, texture_scale=2.2),     # wall z = -2.25
        Plane(normal=(0.0, 0.0, -1.0), offset=-half_z, albedo=0.6, texture_scale=1.8),    # wall z = +2.25
        # Furniture.
        Box(center=(0.4, 0.95, 0.3), half_extents=(0.7, 0.35, 0.45), albedo=0.5, texture_scale=7.0),     # coffee table
        Box(center=(-1.6, 0.85, -1.2), half_extents=(0.8, 0.45, 0.5), albedo=0.45, texture_scale=4.0),   # sofa seat
        Box(center=(-2.2, 0.45, -1.2), half_extents=(0.2, 0.85, 0.5), albedo=0.4, texture_scale=4.5),    # sofa back
        Box(center=(1.9, 0.7, -1.6), half_extents=(0.45, 0.6, 0.3), albedo=0.6, texture_scale=5.5),      # sideboard
        Sphere(center=(0.9, 1.05, 1.3), radius=0.25, albedo=0.85, texture_scale=9.0),                    # ball
        Cylinder(center=(-1.3, 0.45, 1.5), radius=0.12, half_height=0.85, albedo=0.35, texture_scale=8.0),  # floor lamp
        Box(center=(2.3, 0.2, 0.8), half_extents=(0.18, 0.5, 0.6), albedo=0.7, texture_scale=3.0),       # bookshelf
    ]
    return Scene(primitives, name="icl-nuim-living-room-synthetic")


def make_office_scene() -> Scene:
    """A second, office-like scene used for robustness tests and examples."""
    half_x, half_y, half_z = 3.0, 1.4, 3.0
    primitives: List[SdfPrimitive] = [
        Plane(normal=(0.0, -1.0, 0.0), offset=-half_y, albedo=0.5, texture_scale=1.2),
        Plane(normal=(0.0, 1.0, 0.0), offset=-half_y, albedo=0.92, texture_scale=1.0),
        Plane(normal=(1.0, 0.0, 0.0), offset=-half_x, albedo=0.7, texture_scale=2.4),
        Plane(normal=(-1.0, 0.0, 0.0), offset=-half_x, albedo=0.68, texture_scale=2.1),
        Plane(normal=(0.0, 0.0, 1.0), offset=-half_z, albedo=0.76, texture_scale=1.9),
        Plane(normal=(0.0, 0.0, -1.0), offset=-half_z, albedo=0.63, texture_scale=2.6),
        Box(center=(0.0, 0.95, -0.8), half_extents=(1.2, 0.4, 0.6), albedo=0.48, texture_scale=5.0),    # desk
        Box(center=(0.0, 0.3, -1.3), half_extents=(0.5, 0.25, 0.05), albedo=0.3, texture_scale=10.0),   # monitor
        Box(center=(2.4, 0.3, 1.5), half_extents=(0.3, 1.0, 0.5), albedo=0.58, texture_scale=3.4),      # cabinet
        Sphere(center=(-1.5, 1.15, 1.0), radius=0.22, albedo=0.82, texture_scale=8.0),                  # bin
        Cylinder(center=(1.4, 0.75, 1.8), radius=0.25, half_height=0.55, albedo=0.4, texture_scale=6.0),  # chair
    ]
    return Scene(primitives, name="office-synthetic")


__all__ = [
    "SdfPrimitive",
    "Plane",
    "Sphere",
    "Box",
    "Cylinder",
    "Scene",
    "make_living_room_scene",
    "make_office_scene",
]
