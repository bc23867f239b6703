"""Tests for analytic scenes, trajectories, the noise model and the dataset."""

import os
import pickle
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro.slam import kfusion
from repro.slam.dataset import make_icl_nuim_like_dataset
from repro.slam.filters import bilateral_filter
from repro.slam.kfusion import KFusionConfig, KinectFusion
from repro.slam.noise import NOISELESS, KinectNoiseModel
from repro.slam.scene import Box, Cylinder, Plane, Scene, Sphere, make_living_room_scene, make_office_scene
from repro.slam.trajectory import (
    make_living_room_trajectory,
    make_orbit_trajectory,
    make_static_trajectory,
)

#: CI's "Exact-kernel oracle harness" reruns ``TestLiveRayTrace`` with
#: ``HYPOTHESIS_PROFILE=oracle-harness`` (1,500 derandomized examples).
settings.register_profile(
    "oracle-harness", max_examples=1500, deadline=None, derandomize=True, print_blob=True
)
ORACLE_SETTINGS = (
    settings(settings.get_profile("oracle-harness"))
    if os.environ.get("HYPOTHESIS_PROFILE") == "oracle-harness"
    else settings(max_examples=150, deadline=None)
)


class TestPrimitives:
    def test_sphere_sdf_and_gradient(self):
        s = Sphere(center=(0, 0, 0), radius=1.0)
        pts = np.array([[2.0, 0, 0], [0.5, 0, 0], [0, 1.0, 0]])
        d = s.sdf(pts)
        assert d[0] == pytest.approx(1.0)
        assert d[1] == pytest.approx(-0.5)
        assert d[2] == pytest.approx(0.0, abs=1e-12)
        g = s.gradient(pts)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0)
        assert np.allclose(g[0], [1, 0, 0])

    def test_plane_sdf(self):
        p = Plane(normal=(0, -1, 0), offset=-1.3)  # floor at y = +1.3 (y down)
        assert p.sdf(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(1.3)
        assert p.sdf(np.array([[0.0, 1.3, 0.0]]))[0] == pytest.approx(0.0)
        assert p.sdf(np.array([[0.0, 2.0, 0.0]]))[0] == pytest.approx(-0.7)

    def test_box_sdf_outside_inside(self):
        b = Box(center=(0, 0, 0), half_extents=(1, 1, 1))
        assert b.sdf(np.array([[2.0, 0, 0]]))[0] == pytest.approx(1.0)
        assert b.sdf(np.array([[0.0, 0, 0]]))[0] == pytest.approx(-1.0)
        assert b.sdf(np.array([[2.0, 2.0, 0]]))[0] == pytest.approx(np.sqrt(2))

    def test_cylinder_sdf(self):
        c = Cylinder(center=(0, 0, 0), radius=0.5, half_height=1.0)
        assert c.sdf(np.array([[1.5, 0, 0]]))[0] == pytest.approx(1.0)
        assert c.sdf(np.array([[0.0, 0.0, 0.0]]))[0] < 0

    def test_gradient_matches_finite_differences(self):
        prims = [
            Sphere((0.3, -0.2, 0.5), 0.7),
            Box((0.1, 0.2, -0.4), (0.5, 0.3, 0.8)),
            Plane((0, 0, -1), -2.0),
        ]
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(50, 3))
        h = 1e-5
        for prim in prims:
            grad = prim.gradient(pts)
            for axis in range(3):
                offset = np.zeros(3)
                offset[axis] = h
                numeric = (prim.sdf(pts + offset) - prim.sdf(pts - offset)) / (2 * h)
                # Skip points near the box edge discontinuities.
                mask = np.abs(prim.sdf(pts)) > 0.05
                assert np.allclose(grad[mask, axis], numeric[mask], atol=1e-3)


class TestScene:
    def test_living_room_camera_inside_free_space(self):
        scene = make_living_room_scene()
        traj = make_living_room_trajectory(20)
        positions = traj.positions()
        d = scene.sdf(positions)
        assert np.all(d > 0.05), "camera path must stay in free space"

    def test_sdf_and_gradient_consistency(self):
        scene = make_living_room_scene()
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(100, 3))
        d1 = scene.sdf(pts)
        d2, grad = scene.sdf_and_gradient(pts)
        assert np.allclose(d1, d2)
        assert np.allclose(np.linalg.norm(grad, axis=1), 1.0, atol=1e-6)

    def test_intensity_range(self):
        scene = make_living_room_scene()
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2.4, 2.4, size=(200, 3))
        intensity = scene.intensity(pts)
        assert np.all(intensity >= 0.0) and np.all(intensity <= 1.0)

    def test_raycast_hits_walls(self):
        scene = make_living_room_scene()
        origin = np.zeros((1, 3))
        directions = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 1.0]])
        t, hit = scene.raycast(origin, directions, max_depth=10.0)
        assert hit.all()
        assert np.all(t > 1.0) and np.all(t < 4.0)

    def test_office_scene_differs(self):
        lr = make_living_room_scene()
        office = make_office_scene()
        pts = np.array([[0.0, 0.9, -0.8]])
        assert not np.allclose(lr.sdf(pts), office.sdf(pts))

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            Scene([])


class TestTrajectory:
    def test_length_and_pose_shape(self):
        traj = make_living_room_trajectory(37)
        assert len(traj) == 37
        assert traj[0].shape == (4, 4)

    def test_per_frame_motion_is_handheld_scale(self):
        traj = make_living_room_trajectory(60)
        assert float(np.mean(traj.translational_speed())) < 0.03  # < 3 cm / frame
        assert float(np.degrees(np.mean(traj.rotational_speed()))) < 1.5  # < 1.5 deg / frame

    def test_jitter_seed_changes_path_slightly(self):
        a = make_living_room_trajectory(30, seed=1)
        b = make_living_room_trajectory(30, seed=2)
        c = make_living_room_trajectory(30, seed=1)
        assert np.allclose(a.positions(), c.positions())
        assert not np.allclose(a.positions(), b.positions())
        assert np.max(np.abs(a.positions() - b.positions())) < 0.05

    def test_orbit_and_static(self):
        orbit = make_orbit_trajectory(10, radius=1.0)
        assert len(orbit) == 10
        static = make_static_trajectory(5)
        assert np.allclose(static.translational_speed(), 0.0)

    def test_relative_to_first(self):
        traj = make_living_room_trajectory(5)
        rel = traj.relative_to_first()
        assert np.allclose(rel[0], np.eye(4))

    def test_subsample(self):
        traj = make_living_room_trajectory(20)
        assert len(traj.subsample(4)) == 5


class TestNoise:
    def test_noise_magnitude_grows_with_depth(self):
        model = KinectNoiseModel()
        assert model.axial_sigma(4.0) > model.axial_sigma(1.0)

    def test_apply_preserves_invalid_and_range(self, rng):
        model = KinectNoiseModel()
        depth = np.full((30, 40), 2.0)
        depth[0, 0] = 0.0
        depth[1, 1] = 9.0  # beyond max range
        noisy = model.apply(depth, rng=rng)
        assert noisy[0, 0] == 0.0
        assert noisy[1, 1] == 0.0
        valid = noisy > 0
        assert np.abs(noisy[valid] - 2.0).max() < 0.1

    def test_noiseless_model_identity_like(self):
        depth = np.full((10, 10), 1.5)
        out = NOISELESS.apply(depth, rng=0)
        assert np.allclose(out, depth, atol=1e-6)

    def test_grazing_angle_dropout(self, rng):
        model = KinectNoiseModel(dropout_rate=0.0)
        depth = np.full((20, 20), 2.0)
        grazing = np.full((20, 20), 0.01)  # nearly tangent surfaces
        out = model.apply(depth, rng=rng, incidence_cos=grazing)
        assert np.all(out == 0.0)

    def test_intensity_noise_clipped(self, rng):
        model = KinectNoiseModel()
        img = np.linspace(0, 1, 100).reshape(10, 10)
        noisy = model.apply_intensity(img, rng=rng)
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0


class TestDataset:
    def test_frame_contents(self, tiny_dataset):
        frame = tiny_dataset.frame(0)
        assert frame.depth.shape == (30, 40)
        assert frame.intensity.shape == (30, 40)
        assert frame.gt_pose.shape == (4, 4)
        assert (frame.depth > 0).mean() > 0.8
        valid_depth = frame.depth[frame.depth > 0]
        assert valid_depth.min() > 0.3 and valid_depth.max() < 6.0

    def test_caching_returns_same_object(self, tiny_dataset):
        assert tiny_dataset.frame(1) is tiny_dataset.frame(1)

    def test_deterministic_noise_per_frame(self):
        ds1 = make_icl_nuim_like_dataset(n_frames=3, width=24, height=18, seed=7)
        ds2 = make_icl_nuim_like_dataset(n_frames=3, width=24, height=18, seed=7)
        assert np.allclose(ds1.frame(2).depth, ds2.frame(2).depth)

    def test_different_seed_different_noise(self):
        ds1 = make_icl_nuim_like_dataset(n_frames=2, width=24, height=18, seed=1)
        ds2 = make_icl_nuim_like_dataset(n_frames=2, width=24, height=18, seed=2)
        assert not np.allclose(ds1.frame(0).depth, ds2.frame(0).depth)

    def test_clean_depth_close_to_noisy(self, tiny_dataset):
        frame = tiny_dataset.frame(0)
        mask = frame.depth > 0
        assert np.abs(frame.depth[mask] - frame.clean_depth[mask]).max() < 0.2

    def test_index_out_of_range(self, tiny_dataset):
        with pytest.raises(IndexError):
            tiny_dataset.frame(len(tiny_dataset))


def _box_surface_points(box, rng, n):
    """Points on the faces, edges and corners of ``box``."""
    rows = np.arange(n)
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    faces = rng.uniform(-1.0, 1.0, size=(n, 3))
    axis = rng.integers(0, 3, n)
    faces[rows, axis] = signs[rows, axis]
    edges = signs.copy()
    free = rng.integers(0, 3, n)
    edges[rows, free] = rng.uniform(-1.0, 1.0, n)
    return box.center + np.concatenate([faces, edges, signs]) * box.half_extents


def _sphere_only_scene():
    # Equal spheres mirrored through x = 0: every point on that plane is a tie.
    return Scene([Sphere((-1.0, 0.0, 0.0), 0.5), Sphere((1.0, 0.0, 0.0), 0.5, albedo=0.4)], name="spheres")


def _planes_only_scene():
    # A unit cube of inward half-spaces plus one oblique plane; the diagonals
    # x = +-y of the cube are ties between two walls.
    return Scene(
        [
            Plane((1.0, 0.0, 0.0), -1.0),
            Plane((-1.0, 0.0, 0.0), -1.0, albedo=0.5),
            Plane((0.0, 1.0, 0.0), -1.0, albedo=0.6),
            Plane((0.0, -1.0, 0.0), -1.0, albedo=0.8),
            Plane((1.0, 1.0, 1.0), -1.5, albedo=0.3, texture_scale=3.0),
        ],
        name="planes",
    )


_UNION_SCENES = {
    "living-room": make_living_room_scene,
    "office": make_office_scene,
    "spheres": _sphere_only_scene,
    "planes": _planes_only_scene,
}


def _union_probe_points(scene):
    """Random points, box faces/edges/corners, and points equidistant from two primitives."""
    rng = np.random.default_rng(17)
    parts = [rng.uniform(-3.0, 3.0, size=(200, 3))]
    parts += [_box_surface_points(p, rng, 20) for p in scene.primitives if isinstance(p, Box)]
    t = rng.choice([0.125, 0.25, 0.5, 0.75], size=(60, 1))
    z = rng.uniform(-1.0, 1.0, size=(60, 1))
    # Room corners of the shipped scenes (wall x = -2.5 against floor/ceiling)
    # and the ties of the synthetic scenes.
    parts.append(np.hstack([-2.5 + t, 1.3 - t, z]))
    parts.append(np.hstack([-1.0 + t, -1.0 + t, z]))
    parts.append(np.hstack([np.zeros_like(t), t - 0.5, z]))
    pts = np.concatenate(parts)
    return pts[: (len(pts) // 12) * 12]


class TestPackedUnion:
    """The packed union equals the union of the original primitive kernels
    (kept in ``tests/oracles.py``) bit for bit."""

    @pytest.mark.parametrize("scene_name", sorted(_UNION_SCENES))
    @pytest.mark.parametrize("layout", ["points", "image", "single"])
    def test_bitwise_equal_to_per_primitive_union(self, scene_name, layout):
        scene = _UNION_SCENES[scene_name]()
        pts = _union_probe_points(scene)
        if layout == "image":
            pts = pts.reshape(12, -1, 3)
        elif layout == "single":
            pts = pts[:1]
        ref_sdf, ref_dist, ref_grad, ref_intensity = oracles.scene_union_reference(scene, pts)
        dist, grad = scene.sdf_and_gradient(pts)
        for got, want in [
            (scene.sdf(pts), ref_sdf),
            (dist, ref_dist),
            (grad, ref_grad),
            (scene.intensity(pts), ref_intensity),
        ]:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scene_name", ["spheres", "planes"])
    def test_probe_points_include_ties(self, scene_name):
        scene = _UNION_SCENES[scene_name]()
        values = np.sort(np.stack([p.sdf(_union_probe_points(scene)) for p in scene.primitives]), axis=0)
        assert np.sum(values[0] == values[1]) >= 20

    def test_pickle_roundtrip_keeps_union(self):
        scene = make_living_room_scene()
        pts = _union_probe_points(scene)
        clone = pickle.loads(pickle.dumps(scene))
        assert clone.sdf(pts).tobytes() == scene.sdf(pts).tobytes()
        assert clone.sdf_and_gradient(pts)[1].tobytes() == scene.sdf_and_gradient(pts)[1].tobytes()


def _zero_ties_scene():
    """Planes through the origin in both orientations, between other
    primitive types: at points with zero coordinates several rows hold +0.0
    or -0.0, and which zero wins depends on the order the rows are folded
    in.  Ten rows, so one point's column spans a full SIMD register."""
    return Scene(
        [
            Plane((1.0, 0.0, 0.0), 0.0),
            Plane((-1.0, 0.0, 0.0), 0.0),
            Plane((0.0, 1.0, 0.0), 0.0),
            Box((3.0, 3.0, 3.0), (0.5, 0.5, 0.5)),
            Plane((0.0, -1.0, 0.0), 0.0),
            Sphere((4.0, 0.0, 0.0), 0.5),
            Cylinder((0.0, 0.0, 5.0), 0.3, 0.5),
            Plane((0.0, 0.0, 1.0), 0.0),
            Plane((0.0, 0.0, -1.0), 0.0),
            Box((-3.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
        ],
        name="zero-ties",
    )


def _open_scene():
    """A sphere and a box with nothing around them, so rays can miss."""
    return Scene([Sphere((0.0, 0.0, 2.0), 0.5), Box((1.0, 0.0, 3.0), (0.3, 0.3, 0.3))], name="open")


_TRACE_SCENES = {
    "living-room": make_living_room_scene(),
    "office": make_office_scene(),
    "zero-ties": _zero_ties_scene(),
    "open": _open_scene(),
}

#: A quiet NaN with a payload, next to numpy's own NaN and the default NaN
#: that ``inf * 0`` makes: the union must keep the payload numpy keeps.
_PAYLOAD_NAN = float(np.array(0x7FF8000000000123, dtype=np.uint64).view(np.float64))
_SPECIAL_COORDS = [0.0, -0.0, 0.5, -0.5, np.nan, _PAYLOAD_NAN, np.inf, -np.inf]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _layouts(pts, rows, cols):
    """``(N, 3)`` points as ``(N, 3)``, ``(rows, cols, 3)`` and axis-first
    ``(3, N)`` memory seen as ``(N, 3)``."""
    return [pts, pts.reshape(rows, cols, 3), np.ascontiguousarray(pts.T).T]


@st.composite
def _sdf_cases(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    coord = st.one_of(st.floats(-3.5, 3.5), st.sampled_from(_SPECIAL_COORDS))
    flat = draw(st.lists(coord, min_size=3 * rows * cols, max_size=3 * rows * cols))
    return draw(st.sampled_from(sorted(_TRACE_SCENES))), np.array(flat).reshape(-1, 3), rows, cols


@st.composite
def _ray_cases(draw):
    """Rays from inside the rooms (or near the open scene), some starting on
    a surface, some with NaN or infinite direction components."""
    name = draw(st.sampled_from(["living-room", "office", "open"]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    n = rows * cols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, 3))):
        directions[draw(st.integers(0, n - 1)), draw(st.integers(0, 2))] = draw(
            st.sampled_from([np.nan, _PAYLOAD_NAN, np.inf, -np.inf, 0.0, -0.0])
        )
    if draw(st.booleans()):
        # One origin for every ray, broadcast from ``(1, 1, 3)``.
        origins = rng.uniform(-1.2, 1.2, size=(1, 1, 3))
        directions = directions.reshape(rows, cols, 3)
    else:
        origins = rng.uniform(-1.2, 1.2, size=(n, 3))
        # Rays that start on the floor of the rooms or the open scene's sphere.
        on_surface = rng.random(n) < draw(st.sampled_from([0.0, 0.3]))
        origins[on_surface] = (0.0, 1.3, 0.0) if name != "open" else (0.0, 0.0, 1.5)
    max_depth = draw(st.sampled_from([0.0, 0.4, 1.5, 12.0]))
    max_steps = draw(st.sampled_from([0, 1, 2, 5, 96]))
    tolerance = draw(st.sampled_from([1e-3, 0.05, 0.6]))
    return _TRACE_SCENES[name], origins, directions, (max_depth, max_steps, tolerance)


class TestLiveRayTrace:
    """``Scene.raycast`` steps only live rays and ``Scene.sdf`` folds the
    primitive rows with a running minimum; both equal the full-mask tracer
    and the matrix ``min(axis=0)`` kept in ``tests/oracles.py`` byte for
    byte."""

    @ORACLE_SETTINGS
    @given(_sdf_cases())
    def test_sdf_matches_matrix_min(self, case):
        name, pts, rows, cols = case
        scene = _TRACE_SCENES[name]
        with np.errstate(invalid="ignore"):
            for layout in _layouts(pts, rows, cols) + [pts[:1]]:
                _same_bytes(scene.sdf(layout), oracles.scene_sdf_reference(scene, layout))

    def test_sdf_at_signed_zero_ties(self):
        scene = _TRACE_SCENES["zero-ties"]
        zeros = np.array([0.0, -0.0])
        pts = np.stack(np.meshgrid(zeros, zeros, zeros, indexing="ij"), axis=-1).reshape(-1, 3)
        want = oracles.scene_sdf_reference(scene, pts)
        assert np.all(want == 0.0) and 0 < np.signbit(want).sum() < len(want)
        # Folding with the operands swapped moves the -0.0: the ties are
        # sensitive to the order of the fold.
        values = scene._values(pts)
        swapped = values[0].copy()
        for row in values[1:]:
            swapped = np.minimum(row, swapped)
        assert swapped.tobytes() != want.tobytes()
        _same_bytes(scene.sdf(pts), want)
        _same_bytes(scene.sdf(pts.reshape(2, 4, 3)), want.reshape(2, 4))
        for point in pts:  # one point: numpy reduces its column in SIMD lanes
            _same_bytes(scene.sdf(point), oracles.scene_sdf_reference(scene, point))
            _same_bytes(scene.sdf(point[None]), oracles.scene_sdf_reference(scene, point[None]))

    def test_sdf_at_nan_and_infinite_points(self):
        """At an infinite coordinate a plane along another axis gives the NaN
        of ``inf * 0`` and the others ±inf: the union is NaN, where a
        NaN-skipping fold is not."""
        pts = np.array(
            [[np.inf, 0.5, 0.5], [0.5, -np.inf, 0.2], [np.nan, 0.1, 0.1], [0.2, _PAYLOAD_NAN, np.inf]]
        )
        with np.errstate(invalid="ignore"):
            for name, scene in _TRACE_SCENES.items():
                want = oracles.scene_sdf_reference(scene, pts)
                if name != "open":
                    assert np.isnan(want).all()
                    assert not np.isnan(np.fmin.reduce(scene._values(pts), axis=0)).all()
                _same_bytes(scene.sdf(pts), want)

    @ORACLE_SETTINGS
    @given(_ray_cases())
    def test_raycast_matches_full_mask_tracer(self, case):
        scene, origins, directions, (max_depth, max_steps, tolerance) = case
        with np.errstate(invalid="ignore", over="ignore"):
            got = scene.raycast(origins, directions, max_depth, max_steps, tolerance)
            want = oracles.raycast_reference(scene, origins, directions, max_depth, max_steps, tolerance)
        for g, w in zip(got, want):
            _same_bytes(g, w)

    def test_each_kind_of_ray(self):
        """One batch: a hit, a miss, a hit on the first step, a grazing ray
        that runs out of ``max_steps``, a ray that crosses ``max_depth`` on
        its way to a surface, and NaN and infinite directions."""
        scene = _TRACE_SCENES["open"]
        origins = np.array(
            [[0, 0, 0], [0, 0, 0], [0, 0, 1.5], [0.51, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
            dtype=np.float64,
        )
        directions = np.array(
            [[0, 0, 1], [0, 0, -1], [0, 0, 1], [0, 0, 1], [0, 0, 1], [np.nan, 0, 1], [0, 0, np.inf], [np.inf, 0, 0]],
            dtype=np.float64,
        )
        max_depth, max_steps, tolerance = 2.2, 8, 1e-3
        with np.errstate(invalid="ignore"):
            t, hit = oracles.raycast_reference(scene, origins, directions, max_depth, max_steps, tolerance)
            one_step, _ = oracles.raycast_reference(scene, origins, directions, max_depth, 1, tolerance)
            assert hit.tolist() == [True, False, True, False, False, False, False, False]
            assert t[2] == one_step[2] == tolerance / 2  # hit where it started
            assert t[1] >= max_depth and t[4] >= max_depth and scene.sdf(origins[4] + t[4] * directions[4]) > 0.05
            assert t[3] < max_depth  # still live after max_steps
            assert np.isnan(t[5:]).all()
            for shape in [(8, 3), (2, 4, 3)]:
                got = scene.raycast(origins.reshape(shape), directions.reshape(shape), max_depth, max_steps, tolerance)
                _same_bytes(got[0], t.reshape(shape[:-1]))
                _same_bytes(got[1], hit.reshape(shape[:-1]))
            _same_bytes(scene.raycast(origins[0], directions[0], max_depth, max_steps, tolerance)[0], t[0])
            empty = scene.raycast(np.zeros((1, 1, 3)), np.zeros((0, 4, 3)), max_depth, max_steps, tolerance)
            assert empty[0].shape == empty[1].shape == (0, 4)

    @pytest.mark.parametrize("scene_name", ["living-room", "office"])
    def test_render_matches_oracle_patched_render(self, scene_name, monkeypatch):
        def frames():
            ds = make_icl_nuim_like_dataset(n_frames=4, width=40, height=30, seed=7, scene=_TRACE_SCENES[scene_name])
            return [ds._render(i) for i in range(len(ds))]

        live = frames()
        monkeypatch.setattr(Scene, "raycast", oracles.raycast_reference)
        monkeypatch.setattr(Scene, "sdf", oracles.scene_sdf_reference)
        for got, want in zip(live, frames()):
            for name in ("depth", "intensity", "clean_depth"):
                _same_bytes(getattr(got, name), getattr(want, name))


class TestFrameMemo:
    def test_warm_memo_matches_cold_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kfusion, "bilateral_filter", lambda *a, **k: calls.append(1) or bilateral_filter(*a, **k))
        dataset = make_icl_nuim_like_dataset(n_frames=6, width=32, height=24, seed=9)
        config = KFusionConfig(volume_resolution=128, mu=0.05)
        cold = KinectFusion(config).run(dataset)
        assert len(calls) == 6
        warm = KinectFusion(config).run(dataset)
        assert len(calls) == 6, "the warm run refiltered frames"
        assert warm.frames == cold.frames
        assert np.stack(warm.estimated.poses).tobytes() == np.stack(cold.estimated.poses).tobytes()
        assert warm.ate().per_frame.tobytes() == cold.ate().per_frame.tobytes()

    def test_racing_threads_share_one_product(self):
        dataset = make_icl_nuim_like_dataset(n_frames=2, width=24, height=18, seed=1)
        seen = [[] for _ in range(4)]
        start = threading.Barrier(len(seen))

        def compute():
            time.sleep(0)  # let the other threads reach the same missing key
            return []

        def worker(out):
            start.wait(timeout=30)
            for key in range(200):
                out.append(dataset.derived(key, compute))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == 200 for out in seen)
        for products in zip(*seen):
            assert all(p is products[0] for p in products)

    def test_clear_cache_empties_memo(self):
        dataset = make_icl_nuim_like_dataset(n_frames=2, width=24, height=18, seed=1)
        assert dataset.derived("product", lambda: 1) == 1
        assert dataset.derived("product", lambda: 2) == 1
        dataset.clear_cache()
        assert dataset.derived("product", lambda: 2) == 2
