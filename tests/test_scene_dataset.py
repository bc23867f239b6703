"""Tests for analytic scenes, trajectories, the noise model and the dataset."""

import pickle
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _reference_union(scene, points):
    """The union evaluated primitive by primitive: ``(sdf, dist, grad, intensity)``."""
    pts = np.asarray(points, dtype=np.float64)
    values = np.stack([p.sdf(pts) for p in scene.primitives], axis=0)
    winner = values.argmin(axis=0)
    dist = np.take_along_axis(values, winner[None, ...], axis=0)[0]
    grad = np.zeros_like(pts)
    intensity = np.zeros(pts.shape[:-1])
    for i, prim in enumerate(scene.primitives):
        mask = winner == i
        if not np.any(mask):
            continue
        grad[mask] = prim.gradient(pts[mask])
        local = pts[mask]
        s = prim.texture_scale
        tex = (
            0.5
            + 0.25 * np.sin(s * local[..., 0]) * np.cos(s * local[..., 2])
            + 0.15 * np.sin(0.7 * s * local[..., 1] + 1.3)
        )
        intensity[mask] = np.clip(prim.albedo * tex, 0.0, 1.0)
    return values.min(axis=0), dist, grad, intensity


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
    @pytest.mark.parametrize("scene_name", sorted(_UNION_SCENES))
    @pytest.mark.parametrize("layout", ["points", "image", "single"])
    def test_bitwise_equal_to_per_primitive_union(self, scene_name, layout):
        scene = _UNION_SCENES[scene_name]()
        pts = _union_probe_points(scene)
        if layout == "image":
            pts = pts.reshape(12, -1, 3)
        elif layout == "single":
            pts = pts[:1]
        ref_sdf, ref_dist, ref_grad, ref_intensity = _reference_union(scene, pts)
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
