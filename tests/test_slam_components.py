"""Tests for filters, ICP, the TSDF volume, map backends, surfels, metrics
and the ElasticFusion and KinectFusion kernels (bytewise against
``tests/oracles.py``)."""

import copy
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro.slam import elasticfusion as elasticfusion_module
from repro.slam import kfusion as kfusion_module
from repro.slam import se3
from repro.slam.camera import CameraIntrinsics
from repro.slam.elasticfusion import ElasticFusion, ElasticFusionConfig
from repro.slam.filters import (
    bilateral_filter,
    bilinear_sample,
    block_average_downsample,
    depth_pyramid,
    image_gradients,
    normal_map,
    vertex_map,
)
from repro.slam.icp import icp_point_to_implicit, solve_increment
from repro.slam.dataset import make_icl_nuim_like_dataset
from repro.slam.maps import AnalyticSDFMap, TSDFMap, linear_quantile
from repro.slam.metrics import absolute_trajectory_error, relative_pose_error, umeyama_alignment
from repro.slam.kfusion import KFusionConfig, KinectFusion
from repro.slam.scene import Box, Cylinder, Sphere, Scene, make_living_room_scene, make_office_scene
from repro.slam.surfel import SurfelMap
from repro.slam.trajectory import Trajectory, make_living_room_trajectory
from repro.slam.tsdf import TSDFVolume
from repro.slambench.parameters import kfusion_design_space

#: The exact-kernel comparisons in ``TestExactTrackingKernels`` guard
#: rewrites whose only check is their comparison with numpy; CI reruns them
#: with ``HYPOTHESIS_PROFILE=oracle-harness`` (1,500 derandomized examples).
settings.register_profile(
    "oracle-harness", max_examples=1500, deadline=None, derandomize=True, print_blob=True
)
ORACLE_SETTINGS = (
    settings(settings.get_profile("oracle-harness"))
    if os.environ.get("HYPOTHESIS_PROFILE") == "oracle-harness"
    else settings(max_examples=150, deadline=None)
)


class TestFilters:
    def test_bilateral_preserves_flat_regions(self):
        depth = np.full((20, 20), 2.0)
        out = bilateral_filter(depth, radius=2)
        assert np.allclose(out, 2.0, atol=1e-9)

    def test_bilateral_smooths_noise(self, rng):
        depth = 2.0 + rng.normal(scale=0.01, size=(30, 30))
        out = bilateral_filter(depth, radius=2, sigma_range=0.05)
        assert np.std(out[3:-3, 3:-3]) < np.std(depth[3:-3, 3:-3])

    def test_bilateral_preserves_edges(self):
        depth = np.full((20, 20), 1.0)
        depth[:, 10:] = 3.0
        out = bilateral_filter(depth, radius=2, sigma_range=0.05)
        assert abs(out[10, 9] - 1.0) < 0.05
        assert abs(out[10, 10] - 3.0) < 0.05

    def test_bilateral_ignores_invalid(self):
        depth = np.full((10, 10), 2.0)
        depth[5, 5] = 0.0
        out = bilateral_filter(depth, radius=1)
        assert out[5, 5] == 0.0
        assert np.allclose(out[depth > 0], 2.0)

    def test_block_average_downsample(self):
        depth = np.arange(16, dtype=float).reshape(4, 4) + 1
        out = block_average_downsample(depth, 2)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(np.mean([1, 2, 5, 6]))

    def test_block_average_skips_invalid(self):
        depth = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert block_average_downsample(depth, 2)[0, 0] == pytest.approx(2.0)

    def test_depth_pyramid_shapes(self):
        pyr = depth_pyramid(np.ones((40, 64)), levels=3)
        assert [p.shape for p in pyr] == [(40, 64), (20, 32), (10, 16)]

    def test_normal_map_of_plane_is_constant(self):
        cam = CameraIntrinsics.kinect_like(32, 24)
        depth = np.full((24, 32), 2.0)
        normals = normal_map(vertex_map(depth, cam))
        inner = normals[2:-2, 2:-2]
        norms = np.linalg.norm(inner, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-6)
        assert np.allclose(np.abs(inner[..., 2]), 1.0, atol=0.05)

    def test_image_gradients_of_ramp(self):
        img = np.tile(np.arange(10, dtype=float), (8, 1))
        gx, gy = image_gradients(img)
        assert np.allclose(gx[:, 1:-1], 1.0)
        assert np.allclose(gy[1:-1, :], 0.0)

    def test_bilinear_sample(self):
        img = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert bilinear_sample(img, np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.5)
        assert bilinear_sample(img, np.array([5.0]), np.array([0.0]), fill=-1.0)[0] == -1.0


class TestICP:
    def test_solve_increment_handles_singular(self):
        delta = solve_increment(np.zeros((6, 6)), np.zeros(6))
        assert delta.shape == (6,)

    def test_icp_recovers_translation_against_sphere(self):
        # A single sphere constrains translation (rotation about its centre is
        # unobservable), so the ground-truth offset is a pure translation.
        scene = Scene([Sphere((0.0, 0.0, 0.0), 1.0)])
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(400, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        surface_points = dirs  # radius-1 sphere
        true_pose = se3.exp_se3(np.array([0.02, -0.015, 0.01, 0.0, 0.0, 0.0]))
        pts_cam = se3.transform_points(se3.invert(true_pose), surface_points)

        def query(points):
            return scene.sdf_and_gradient(points)

        result = icp_point_to_implicit(pts_cam, query, np.eye(4), iterations=[15], termination_threshold=1e-10)
        assert result.converged
        assert np.allclose(result.pose[:3, 3], true_pose[:3, 3], atol=2e-3)

    def test_icp_recovers_full_pose_against_living_room(self):
        # The living-room scene (walls + furniture) constrains all six degrees
        # of freedom.
        scene = make_living_room_scene()
        rng = np.random.default_rng(3)
        # Sample free-space points and project them onto the nearest surface.
        pts = rng.uniform(-1.8, 1.8, size=(600, 3)) * np.array([1.0, 0.6, 1.0])
        d, g = scene.sdf_and_gradient(pts)
        surface_points = pts - d[:, None] * g
        true_pose = se3.exp_se3(np.array([0.02, -0.015, 0.01, 0.015, -0.01, 0.02]))
        pts_cam = se3.transform_points(se3.invert(true_pose), surface_points)
        result = icp_point_to_implicit(pts_cam, scene.sdf_and_gradient, np.eye(4), iterations=[20], termination_threshold=1e-12)
        assert result.converged
        assert np.allclose(result.pose[:3, 3], true_pose[:3, 3], atol=5e-3)
        assert se3.rotation_angle(result.pose[:3, :3] @ true_pose[:3, :3].T) < 5e-3

    def test_icp_threshold_terminates_early(self):
        scene = Scene([Sphere((0.0, 0.0, 0.0), 1.0)])
        rng = np.random.default_rng(1)
        dirs = rng.normal(size=(300, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * 1.01

        def query(points):
            return scene.sdf_and_gradient(points)

        strict = icp_point_to_implicit(pts, query, np.eye(4), iterations=[20], termination_threshold=1e-12)
        loose = icp_point_to_implicit(pts, query, np.eye(4), iterations=[20], termination_threshold=1e3)
        assert loose.iterations < strict.iterations

    def test_icp_too_few_points(self):
        result = icp_point_to_implicit(np.zeros((3, 3)), lambda p: (np.zeros(len(p)), np.zeros((len(p), 3))), np.eye(4))
        assert not result.converged and result.iterations == 0


class TestTSDF:
    @pytest.fixture()
    def fused_volume(self):
        cam = CameraIntrinsics.kinect_like(40, 30)
        volume = TSDFVolume(resolution=48, size_m=4.0, mu=0.2)
        depth = np.full((30, 40), 1.5)
        pose = np.eye(4)
        volume.integrate(depth, cam, pose)
        return volume, cam, depth

    def test_integrate_creates_surface(self, fused_volume):
        volume, cam, depth = fused_volume
        assert volume.occupancy_fraction() > 0.0
        # Sample along the optical axis: in front of the wall the SDF is
        # positive, behind it negative.
        front, valid_f = volume.sample(np.array([[0.0, 0.0, 1.3]]))
        behind, valid_b = volume.sample(np.array([[0.0, 0.0, 1.62]]))
        assert valid_f[0] and valid_b[0]
        assert front[0] > 0 > behind[0]

    def test_sample_with_gradient_points_towards_camera(self, fused_volume):
        volume, _, _ = fused_volume
        dist, grad = volume.sample_with_gradient(np.array([[0.0, 0.0, 1.45]]))
        assert np.isfinite(dist[0])
        assert grad[0, 2] < -0.5  # surface normal faces the camera (-z)

    def test_sample_outside_volume_invalid(self, fused_volume):
        volume, _, _ = fused_volume
        dist, _ = volume.sample_with_gradient(np.array([[10.0, 10.0, 10.0]]))
        assert np.isinf(dist[0])

    def test_raycast_recovers_depth(self, fused_volume):
        volume, cam, depth = fused_volume
        ray_depth, vertices, normals = volume.raycast(cam, np.eye(4))
        hit = ray_depth > 0
        assert hit.mean() > 0.5
        assert np.abs(ray_depth[hit] - 1.5).mean() < 0.1

    def test_extract_surface_points_near_wall(self, fused_volume):
        volume, _, _ = fused_volume
        pts = volume.extract_surface_points(band=0.6)
        assert pts.shape[0] > 0
        assert np.abs(pts[:, 2].mean() - 1.5) < 0.3

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TSDFVolume(resolution=4)
        with pytest.raises(ValueError):
            TSDFVolume(mu=0.0)


class TestMapBackends:
    def test_analytic_map_error_model_monotonic_in_resolution(self):
        scene = make_living_room_scene()
        coarse = AnalyticSDFMap(scene, resolution=64, size_m=4.8, mu=0.1)
        fine = AnalyticSDFMap(scene, resolution=256, size_m=4.8, mu=0.1)
        assert coarse.effective_sigma > fine.effective_sigma

    def test_analytic_map_narrow_mu_creates_holes(self):
        scene = make_living_room_scene()
        narrow = AnalyticSDFMap(scene, resolution=256, size_m=4.8, mu=0.005)
        wide = AnalyticSDFMap(scene, resolution=256, size_m=4.8, mu=0.1)
        assert narrow.base_hole_fraction > wide.base_hole_fraction

    def test_analytic_map_staleness_grows_and_resets(self):
        scene = make_living_room_scene()
        m = AnalyticSDFMap(scene, resolution=128, size_m=4.8, mu=0.1)
        base_sigma = m.effective_sigma
        m.notify_motion(0.5, 0.2)
        assert m.effective_sigma > base_sigma
        m.integrate(np.zeros((2, 2)), CameraIntrinsics.kinect_like(2, 2), np.eye(4), 0)
        assert m.effective_sigma == pytest.approx(base_sigma)

    def test_analytic_map_query_shapes(self):
        scene = make_living_room_scene()
        m = AnalyticSDFMap(scene, resolution=128, size_m=4.8, mu=0.1)
        m.integrate(np.zeros((2, 2)), CameraIntrinsics.kinect_like(2, 2), np.eye(4), 0)
        pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
        dist, grad = m.sdf_query(pts)
        assert dist.shape == (50,) and grad.shape == (50, 3)
        assert m.has_content

    def test_tsdf_map_backend(self):
        cam = CameraIntrinsics.kinect_like(32, 24)
        m = TSDFMap(resolution=32, size_m=4.0, mu=0.2)
        assert not m.has_content
        m.integrate(np.full((24, 32), 1.5), cam, np.eye(4), 0)
        assert m.has_content
        dist, grad = m.sdf_query(np.array([[0.0, 0.0, 1.4]]))
        assert np.isfinite(dist[0])


class TestSurfelMap:
    def test_fuse_creates_and_updates(self):
        m = SurfelMap(merge_distance=0.05)
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        nrm = np.tile([0.0, 0.0, -1.0], (2, 1))
        col = np.array([0.5, 0.7])
        updated, added = m.fuse(pts, nrm, col, frame_index=0)
        assert (updated, added) == (0, 2)
        updated, added = m.fuse(pts + 0.001, nrm, col, frame_index=1)
        assert updated == 2 and added == 0
        assert m.n_surfels == 2
        assert np.all(m.confidences[:2] >= 2.0)

    def test_confidence_threshold_gating(self):
        m = SurfelMap(merge_distance=0.05)
        pts = np.array([[0.0, 0.0, 1.0]])
        nrm = np.array([[0.0, 0.0, -1.0]])
        m.fuse(pts, nrm, np.array([0.5]), frame_index=0, confidence_increment=1.0)
        assert m.n_active(confidence_threshold=5.0) == 0
        for i in range(1, 6):
            m.fuse(pts, nrm, np.array([0.5]), frame_index=i, confidence_increment=1.0)
        assert m.n_active(confidence_threshold=5.0) == 1

    def test_update_by_index(self):
        m = SurfelMap()
        m.fuse(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]), np.array([0.5]), frame_index=0)
        n = m.update_by_index(
            np.array([0, 0]),
            np.array([[0.0, 0.0, 1.1], [0.0, 0.0, 1.2]]),
            np.tile([0.0, 0.0, -1.0], (2, 1)),
            np.array([0.6, 0.8]),
            weight=1.0,
            frame_index=3,
        )
        assert n == 1
        assert 1.0 < m.positions[0, 2] < 1.2
        assert m.timestamps[0] == 3

    def test_predict_view_splats_nearest(self):
        m = SurfelMap(merge_distance=0.01)
        cam = CameraIntrinsics.kinect_like(20, 16)
        # Two surfels on the optical axis at different depths.
        m.fuse(
            np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]),
            np.tile([0.0, 0.0, -1.0], (2, 1)),
            np.array([0.2, 0.9]),
            frame_index=0,
        )
        view = m.predict_view(cam, np.eye(4), splat_radius=0)
        center = view["depth"][8, 10]
        assert center == pytest.approx(1.0)

    def test_decay_unstable(self):
        m = SurfelMap()
        m.fuse(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]), np.array([0.5]), frame_index=0, confidence_increment=1.0)
        removed = m.decay_unstable(frame_index=100, max_age=10, min_confidence=5.0)
        assert removed == 1 and m.n_surfels == 0

    def test_grow_beyond_initial_capacity(self, rng):
        m = SurfelMap(merge_distance=0.001, initial_capacity=8)
        pts = rng.uniform(-1, 1, size=(500, 3))
        nrm = np.tile([0.0, 0.0, 1.0], (500, 1))
        m.fuse(pts, nrm, np.ones(500), frame_index=0)
        assert m.n_surfels > 8


class TestMetrics:
    def test_identical_trajectories_zero_error(self):
        traj = make_living_room_trajectory(20)
        ate = absolute_trajectory_error(traj, traj)
        assert ate.mean == pytest.approx(0.0)
        assert ate.max == pytest.approx(0.0)

    def test_constant_offset(self):
        gt = make_living_room_trajectory(10)
        est = Trajectory([p.copy() for p in gt.poses])
        for p in est.poses:
            p[:3, 3] += np.array([0.03, 0.0, 0.04])
        ate = absolute_trajectory_error(est, gt)
        assert ate.mean == pytest.approx(0.05)
        assert ate.rmse == pytest.approx(0.05)

    def test_alignment_removes_rigid_offset(self):
        gt = make_living_room_trajectory(30)
        offset = se3.exp_se3(np.array([0.3, -0.1, 0.2, 0.05, 0.02, -0.04]))
        est = Trajectory([offset @ p for p in gt.poses])
        raw = absolute_trajectory_error(est, gt, align=False)
        aligned = absolute_trajectory_error(est, gt, align=True)
        assert aligned.mean < raw.mean
        assert aligned.mean < 0.01

    def test_umeyama_exact_recovery(self, rng):
        src = rng.normal(size=(50, 3))
        T_true = se3.random_pose(rng, max_translation=0.5, max_angle=1.0)
        dst = se3.transform_points(T_true, src)
        T_est = umeyama_alignment(src, dst)
        assert np.allclose(T_est, T_true, atol=1e-8)

    def test_relative_pose_error_zero_for_identical(self):
        traj = make_living_room_trajectory(15)
        t_err, r_err = relative_pose_error(traj, traj, delta=3)
        assert t_err == pytest.approx(0.0)
        assert r_err == pytest.approx(0.0, abs=1e-9)

    def test_empty_trajectories_rejected(self):
        with pytest.raises(ValueError):
            absolute_trajectory_error(Trajectory([]), Trajectory([]))


def _same_maps(got, expected):
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key].dtype == expected[key].dtype, key
        assert np.array_equal(got[key], expected[key]), key


def _same_terms(got, expected):
    JtJ, Jtr, err, count = got
    assert np.array_equal(JtJ, expected[0])
    assert np.array_equal(Jtr, expected[1])
    assert err == expected[2] and count == expected[3]


def _surfel_map(points, confidences, rng):
    """One surfel per point, with the given confidences."""
    m = SurfelMap(merge_distance=1e-3)
    normals = rng.normal(size=points.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    for conf in np.unique(confidences):
        pick = confidences == conf
        m.fuse(points[pick], normals[pick], rng.uniform(size=int(pick.sum())), frame_index=0, confidence_increment=conf)
    assert m.n_surfels == len(points)
    return m


def _tied_points(cam, rng, n):
    """Surfels on a few exact depths, projecting to nearby pixels and to
    every image border, so that splats of equal depth overlap and clamp."""
    rows = rng.integers(0, cam.height, size=n)
    cols = rng.integers(0, cam.width, size=n)
    rows[:4], cols[:4] = [0, cam.height - 1, 3, 5], [4, 6, 0, cam.width - 1]
    z = rng.choice([1.0, 1.5, 2.0], size=n)
    u = cols + rng.uniform(-0.3, 0.3, size=n)
    v = rows + rng.uniform(-0.3, 0.3, size=n)
    return np.stack([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z], axis=1)


def _near_marks(extent):
    """Pixel coordinates on and around the edges of an axis ``extent``
    pixels long: both zeros, the last pixel and one ulp either side of the
    two edges."""
    last = float(extent - 1)
    return np.array([0.0, -0.0, np.nextafter(0.0, -1.0), last, np.nextafter(last, -np.inf), np.nextafter(last, np.inf)])


@st.composite
def _projection_cases(draw):
    """A camera 1 to 12 pixels a side, ``(N, 3)`` camera-frame points and a
    valid-pixel mask.  On the unit camera (``fx = fy = 1``, ``cx`` and
    ``cy`` 0.0 or -0.0) a point at a power-of-two depth ``z`` with ``x = u z``
    projects to exactly ``u``, so coordinates land on 0, ``w - 1``,
    integers, half-integers (where rounding goes to even) and one ulp beside
    the edges; the other cameras take drawn points.  NaN, ±inf, ``z = 0``,
    -0.0 and depths at the ``1e-6`` cut are mixed in."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(["unit", "kinect", "drawn"]))
    if kind == "unit":
        zero = draw(st.sampled_from([0.0, -0.0]))
        cam = CameraIntrinsics(fx=1.0, fy=1.0, cx=zero, cy=zero, width=w, height=h)

        def coords(extent):
            pool = np.concatenate(
                [
                    _near_marks(extent),
                    rng.integers(-1, extent + 1, n) + 0.5,
                    rng.integers(0, extent, n).astype(np.float64),
                    rng.uniform(-1.0, extent, n),
                ]
            )
            return rng.choice(pool, n)

        u, v = coords(w), coords(h)
        z = rng.choice([0.5, 1.0, 2.0, 4.0], n)
        pts = np.stack([u * z, v * z, z], axis=1)
    else:
        if kind == "kinect":
            cam = CameraIntrinsics.kinect_like(w, h)
        else:
            fx, fy = rng.uniform(0.5, 50.0, 2)
            cam = CameraIntrinsics(fx=fx, fy=fy, cx=rng.uniform(-1.0, w), cy=rng.uniform(-1.0, h), width=w, height=h)
        z = rng.uniform(-0.5, 3.0, n)
        pts = np.stack([rng.uniform(-1.0, 1.0, n) * z, rng.uniform(-1.0, 1.0, n) * z, z], axis=1)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-6, np.nextafter(1e-6, 1.0), 1e-300]
    picks = rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.03, 0.2]))
    pts[picks] = rng.choice(specials, int(picks.sum()))
    valid_flat = rng.random(w * h) < rng.choice([0.3, 0.9, 1.0])
    return cam, pts, valid_flat


def _signed_magnitudes(rng, shape):
    """Both signs, magnitudes from 1e-300 to 1e5, and about 15% zeros of
    either sign."""
    a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, 5.0, shape)
    zeros = rng.random(shape) < 0.15
    a[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return a


@st.composite
def _surfel_updates(draw):
    """A surfel map and observations of its surfels, repeats included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_surfels, n_obs = draw(st.integers(1, 12)), int(rng.integers(1, 41))
    m = SurfelMap(merge_distance=1e-3)
    normals = rng.normal(size=(n_surfels, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    points = np.stack([np.arange(n_surfels) * 0.05, np.zeros(n_surfels), np.ones(n_surfels)], axis=1)
    m.fuse(points, normals, rng.uniform(size=n_surfels), frame_index=0)
    m.confidences[:n_surfels] = rng.choice([1.0, 4.0, 7.5, 1e-300, 3e4], n_surfels)
    # Few distinct surfels: most observations repeat one.
    idx = rng.integers(0, rng.integers(1, n_surfels + 1), n_obs)
    weight = rng.choice([4.0, 1.0, 0.1, 3.7, 1e-300, 2.5e5])
    shapes = [(n_obs, 3), (n_obs, 3), (n_obs,)]
    return m, idx, [_signed_magnitudes(rng, shape) for shape in shapes], weight


@st.composite
def _depth_maps(draw):
    """Intrinsics and a depth map 1 to 24 pixels a side with NaN, ±inf,
    both zeros, negative, tiny and huge depths."""
    w, h = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rng.random() < 0.5:
        cam = CameraIntrinsics.kinect_like(w, h)
    else:
        fx, fy = rng.uniform(0.1, 600.0, 2)
        cam = CameraIntrinsics(fx=fx, fy=fy, cx=rng.uniform(-5.0, w + 5.0), cy=rng.uniform(-5.0, h + 5.0), width=w, height=h)
    depth = rng.uniform(-0.5, 4.0, (h, w))
    special = rng.random((h, w)) < rng.choice([0.0, 0.1, 0.5])
    depth[special] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1e-300, 1e300], int(special.sum()))
    with np.errstate(over="ignore"):
        return cam, depth.astype(np.float32) if rng.random() < 0.25 else depth


@st.composite
def _twists(draw):
    """Twists whose rotation part is zero (either sign), below, at or just
    above the ``1e-12`` cut, subnormal, near pi, or of any size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    kind = draw(st.sampled_from(["zero", "cut", "tiny", "near-pi", "any"]))
    if kind == "zero":
        w = rng.choice([0.0, -0.0], 3)
    elif kind == "cut":
        w = np.zeros(3)
        w[rng.integers(0, 3)] = np.nextafter(1e-12, rng.choice([0.0, 1.0])) if rng.random() < 0.7 else 1e-12
        w *= rng.choice([-1.0, 1.0], 3)
    elif kind == "tiny":
        w = axis * 10.0 ** rng.uniform(-320.0, -12.0)
    elif kind == "near-pi":
        w = axis * (np.pi + rng.choice([0.0, 1.0, -1.0]) * 10.0 ** rng.uniform(-16.0, -4.0))
    else:
        w = axis * 10.0 ** rng.uniform(-12.0, 1.5)
    v = rng.normal(size=3) * 10.0 ** rng.uniform(-8.0, 1.0)
    return np.concatenate([v, w])


class TestElasticFusionKernelOracles:
    """The flat-index kernels equal their straightforward originals bit for bit."""

    def test_bilinear_2d_matches_reference(self, rng):
        img = rng.normal(size=(13, 17))
        u = rng.uniform(-2.0, 18.0, size=400)
        v = rng.uniform(-2.0, 14.0, size=400)
        u[:6] = [0.0, 16.0, 16.0, np.inf, -np.inf, 15.9999999]
        v[:6] = [0.0, 12.0, 3.5, 1.0, 1.0, 11.9999999]
        for fill in (0.0, -1.0):
            assert np.array_equal(bilinear_sample(img, u, v, fill), oracles.bilinear_sample_reference(img, u, v, fill))

    def test_bilinear_channels_match_per_channel_sampling(self, rng):
        img = rng.normal(size=(13, 17, 3))
        u = rng.uniform(-2.0, 18.0, size=400)
        v = rng.uniform(-2.0, 14.0, size=400)
        u[:4] = [np.nan, 3.0, np.inf, 16.0]
        v[:4] = [2.0, np.nan, 5.0, 12.0]
        out = bilinear_sample(img, u, v, fill=-2.0)
        assert out.shape == (400, 3)
        per_channel = np.stack([bilinear_sample(img[..., c], u, v, fill=-2.0) for c in range(3)], axis=1)
        assert np.array_equal(out, per_channel)
        assert np.all(out[:3] == -2.0)
        finite = np.isfinite(u) & np.isfinite(v)
        for c in range(3):
            expected = oracles.bilinear_sample_reference(img[..., c], u[finite], v[finite], fill=-2.0)
            assert np.array_equal(out[finite, c], expected)

    def test_normal_map_matches_reference(self, tiny_dataset):
        cam = tiny_dataset.camera
        vertices = cam.backproject(tiny_dataset.frame(2).depth)
        assert np.array_equal(normal_map(vertices), oracles.normal_map_reference(vertices))

    @pytest.mark.parametrize("splat_radius", [0, 1, 2])
    def test_predict_view_equal_depth_ties_and_borders(self, rng, splat_radius):
        cam = CameraIntrinsics.kinect_like(24, 18)
        points = _tied_points(cam, rng, 300)
        m = _surfel_map(points, rng.choice([1.0, 4.0, 9.0], size=len(points)), rng)
        for threshold in (0.0, 4.0):
            got = m.predict_view(cam, np.eye(4), confidence_threshold=threshold, splat_radius=splat_radius)
            expected = oracles.predict_view_reference(m, cam, np.eye(4), confidence_threshold=threshold, splat_radius=splat_radius)
            _same_maps(got, expected)

    @pytest.mark.parametrize("splat_radius", [0, 1, 2])
    def test_predict_view_random_pose(self, rng, splat_radius):
        cam = CameraIntrinsics.kinect_like(32, 24)
        pose = se3.random_pose(rng, max_translation=0.2, max_angle=0.3)
        points = se3.transform_points(pose, _tied_points(cam, rng, 500) + rng.normal(scale=0.05, size=(500, 3)))
        m = _surfel_map(points, rng.choice([1.0, 4.0], size=len(points)), rng)
        _same_maps(
            m.predict_view(cam, pose, confidence_threshold=2.0, max_depth=1.8, splat_radius=splat_radius),
            oracles.predict_view_reference(m, cam, pose, confidence_threshold=2.0, max_depth=1.8, splat_radius=splat_radius),
        )

    def test_predict_view_empty_cases(self, rng):
        cam = CameraIntrinsics.kinect_like(16, 12)
        empty = SurfelMap()
        _same_maps(empty.predict_view(cam, np.eye(4)), oracles.predict_view_reference(empty, cam, np.eye(4)))
        m = _surfel_map(_tied_points(cam, rng, 40), np.full(40, 2.0), rng)
        # No surfel passes the threshold: an empty active set.
        _same_maps(
            m.predict_view(cam, np.eye(4), confidence_threshold=5.0),
            oracles.predict_view_reference(m, cam, np.eye(4), confidence_threshold=5.0),
        )
        # Every surfel behind the camera.
        behind = se3.make_pose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
        got = m.predict_view(cam, behind)
        _same_maps(got, oracles.predict_view_reference(m, cam, behind))
        assert np.all(got["index"] == -1)

    @staticmethod
    def _frame_view(ef, dataset, index, pose):
        frame = dataset.frame(index)
        return ef._view_from_frame(ef._frame_inputs(frame.depth, frame.intensity, dataset.camera), pose)

    @staticmethod
    def _model_view(ef, dataset, pose):
        inputs = ef._frame_inputs(dataset.frame(0).depth, dataset.frame(0).intensity, dataset.camera)
        m = SurfelMap()
        m.fuse(
            se3.transform_points(dataset.trajectory[0], inputs.fused_points),
            se3.rotate_vectors(dataset.trajectory[0], inputs.fused_normals),
            inputs.fused_intensity,
            frame_index=0,
            confidence_increment=20.0,
        )
        return ef._view_from_model(m, dataset.camera, pose)

    def test_downsampled_views_match_reference(self, tiny_dataset):
        ef = ElasticFusion(ElasticFusionConfig())
        view = self._frame_view(ef, tiny_dataset, 0, tiny_dataset.trajectory[0])
        for factor in (2, 4):
            got = view.downsampled(factor)
            assert got is view.downsampled(factor)
            expected = oracles.downsample_view_reference(view, factor)
            assert got.camera == expected.camera
            for name in ("pose", "vertices", "normals", "intensity", "valid"):
                assert np.array_equal(getattr(got, name), getattr(expected, name)), name
            assert np.array_equal(got.vertices_flat, expected.vertices.reshape(-1, 3))
            assert np.array_equal(got.valid_flat, expected.valid.reshape(-1))

    def test_terms_match_reference_on_perturbed_poses(self, tiny_dataset, rng):
        ef = ElasticFusion(ElasticFusionConfig())
        frame = tiny_dataset.frame(1)
        inputs = ef._frame_inputs(frame.depth, frame.intensity, tiny_dataset.camera)
        targets = [
            self._frame_view(ef, tiny_dataset, 0, tiny_dataset.trajectory[0]),
            self._model_view(ef, tiny_dataset, tiny_dataset.trajectory[1]),
        ]
        n_terms = 0
        for target in targets:
            for level, factor in enumerate((1, 2, 4)):
                view = target.downsampled(factor)
                for _ in range(4):
                    jitter = se3.exp_se3(rng.normal(scale=[0.02, 0.02, 0.02, 0.01, 0.01, 0.01]))
                    pts_world = se3.transform_points(jitter @ tiny_dataset.trajectory[1], inputs.points[level])
                    proj = elasticfusion_module._project(view.camera, se3.transform_points(view.T_wc, pts_world))
                    geo = ef._geometric_terms(pts_world, proj, view)
                    _same_terms(geo, oracles.geometric_terms_reference(pts_world, view))
                    rgb = ef._photometric_terms(pts_world, proj, inputs.observed[level], view)
                    _same_terms(rgb, oracles.photometric_terms_reference(pts_world, inputs.observed[level], view))
                    n_terms += geo[3] > 0 and rgb[3] > 0
        assert n_terms > 0

    @pytest.mark.parametrize("same_target", [True, False])
    def test_joint_tracking_terms_match_reference(self, tiny_dataset, monkeypatch, same_target):
        """Every term the tracker evaluates, with geometric and photometric
        targets that are one object (one shared projection) or two."""
        ef = ElasticFusion(ElasticFusionConfig())
        frame = tiny_dataset.frame(1)
        inputs = ef._frame_inputs(frame.depth, frame.intensity, tiny_dataset.camera)
        prev_view = self._frame_view(ef, tiny_dataset, 0, tiny_dataset.trajectory[0])
        geo_target = prev_view if same_target else self._model_view(ef, tiny_dataset, tiny_dataset.trajectory[1])

        calls = {"geo": 0, "rgb": 0}
        geometric, photometric = ElasticFusion._geometric_terms, ElasticFusion._photometric_terms

        def checked_geometric(self, pts_world, proj, target):
            got = geometric(self, pts_world, proj, target)
            _same_terms(got, oracles.geometric_terms_reference(pts_world, target))
            calls["geo"] += 1
            return got

        def checked_photometric(self, pts_world, proj, obs, target):
            got = photometric(self, pts_world, proj, obs, target)
            _same_terms(got, oracles.photometric_terms_reference(pts_world, obs, target))
            calls["rgb"] += 1
            return got

        monkeypatch.setattr(ElasticFusion, "_geometric_terms", checked_geometric)
        monkeypatch.setattr(ElasticFusion, "_photometric_terms", checked_photometric)
        T, stats = ef._joint_tracking(inputs, geo_target, prev_view, tiny_dataset.trajectory[0], rotation_only_first=True)
        assert calls["geo"] == stats["icp_iterations"] > 0
        assert calls["rgb"] > stats["rgb_iterations"] > 0  # the SO(3) pre-alignment adds calls
        assert np.isfinite(stats["error"])

    @ORACLE_SETTINGS
    @given(_projection_cases())
    def test_projection_and_association_match_project_to_indices(self, case):
        """One projection serves both terms and rounds only the points
        inside the image: the same pixel coordinates as
        ``CameraIntrinsics.project`` and the same hits and pixels, in the same
        order, as rounding, clamping and looking up every point."""
        cam, pts, valid_flat = case
        proj = elasticfusion_module._project(cam, pts)
        u, v, _ = cam.project(pts)
        assert proj[0] is pts
        _same_bytes(proj[1], pts[:, 2])
        _same_bytes(proj[2], u)
        _same_bytes(proj[3], v)
        with np.errstate(invalid="ignore"):
            rows, cols, in_image = oracles._project_to_indices_reference(cam, pts)
        pixels = rows * cam.width + cols
        for valid in (valid_flat, np.ones_like(valid_flat)):
            hit, hit_pixels = elasticfusion_module._associate(proj, cam, valid)
            want = np.flatnonzero(in_image & valid[pixels])
            _same_bytes(hit, want)
            _same_bytes(hit_pixels, pixels[want])

    @pytest.mark.parametrize("channels", [False, True])
    def test_bilinear_one_pixel_wide_or_high(self, channels):
        """A 1x1, 3x1 or 1x3 image is sampled along its one column or row:
        the neighbour across the missing axis is the pixel itself, weighted
        0.  Hand-computed values; along the axis the far edge is clipped to
        ``2 - 1e-6`` as on any image."""
        line = np.array([1.0, 2.0, 3.0])
        if channels:
            line = np.stack([line, 10.0 * line + 0.25, 4.0 - line], axis=-1)
        a, b, c = line
        t = (3 - 1.000001) - 1
        along = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        expected = [a, a * 0.5 + b * 0.5, b, b * 0.5 + c * 0.5, b * (1 - t) + c * t]
        outside = np.array([-0.1, np.nextafter(2.0, 3.0), 2.1, np.nan, np.inf, -np.inf])
        fill = np.full_like(a, -7.0)
        column, row = line[:, None], line[None, :]
        for across in (0.0, -0.0):
            flat = np.full(along.size, across)
            for got in (bilinear_sample(column, flat, along, -7.0), bilinear_sample(row, along, flat, -7.0)):
                for g, e in zip(got, expected):
                    _same_bytes(g, e)
            off = np.full(outside.size, across)
            for got in (bilinear_sample(column, off, outside, -7.0), bilinear_sample(row, outside, off, -7.0)):
                for g in got:
                    _same_bytes(g, fill)
        # Off the one column (row), at any point along it.
        for got in (bilinear_sample(column, [0.5, 1e-300, -0.1], [1.0, 1.0, 1.0], -7.0), bilinear_sample(row, [1.0] * 3, [0.5, 1e-300, -0.1], -7.0)):
            for g in got:
                _same_bytes(g, fill)
        pixel = line[:1, None]
        got = bilinear_sample(pixel, [0.0, -0.0, 0.0, 0.5, 1e-300, np.nan], [0.0, -0.0, 1e-300, 0.0, 0.0, 0.0], -7.0)
        for g, e in zip(got, [a, a, fill, fill, fill, fill]):
            _same_bytes(g, e)

    def test_bilinear_small_images_match_reference(self, rng):
        """From 2x2 up the right and lower neighbours need no clamp: the
        same bits as the clamped original, on and beside every edge, at
        every size up to 6x6."""
        for w in range(2, 7):
            for h in range(2, 7):
                img = rng.normal(size=(h, w, 3))
                marks_u = np.concatenate([_near_marks(w), np.arange(-1, w + 1) + 0.5, rng.uniform(-1.0, w, 8)])
                marks_v = np.concatenate([_near_marks(h), np.arange(-1, h + 1) + 0.5, rng.uniform(-1.0, h, 8)])
                u, v = (grid.ravel() for grid in np.meshgrid(marks_u, marks_v))
                got = bilinear_sample(img, u, v, fill=-3.0)
                for ch in range(3):
                    _same_bytes(got[:, ch], oracles.bilinear_sample_reference(img[..., ch], u, v, fill=-3.0))
                _same_bytes(bilinear_sample(img[..., 0], u, v, fill=-3.0), got[:, 0])

    @ORACLE_SETTINGS
    @given(_surfel_updates())
    def test_update_by_index_matches_add_at(self, case):
        """Per-surfel sums by ``np.bincount`` add in observation order from
        0.0, as ``np.add.at`` into zeros does."""
        m, idx, (pts, nrm, col), weight = case
        ref = copy.deepcopy(m)
        with np.errstate(all="ignore"):
            got = m.update_by_index(idx, pts, nrm, col, weight=weight, frame_index=5)
            want = oracles.update_by_index_reference(ref, idx, pts, nrm, col, weight=weight, frame_index=5)
        assert got == want == np.unique(idx).size
        for name in ("positions", "normals", "intensities", "confidences", "timestamps"):
            _same_bytes(getattr(m, name), getattr(ref, name))

    def test_update_by_index_edges(self):
        m = _surfel_map(np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 1.0]]), np.array([2.0, 2.0]), np.random.default_rng(0))
        ref = copy.deepcopy(m)
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
        assert m.update_by_index(*empty, weight=4.0, frame_index=1) == 0
        for bad in ([2], [-1]):
            with pytest.raises(IndexError):
                m.update_by_index(np.array(bad), np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(1), weight=4.0, frame_index=1)
        for name in ("positions", "normals", "intensities", "confidences", "timestamps"):
            _same_bytes(getattr(m, name), getattr(ref, name))

    @ORACLE_SETTINGS
    @given(_depth_maps())
    def test_backproject_matches_meshgrid(self, case):
        """Broadcast row and column coordinates give each pixel the
        coefficients a meshgrid gives it."""
        cam, depth = case
        with np.errstate(over="ignore", invalid="ignore"):
            got = cam.backproject(depth)
            want = oracles.backproject_reference(cam, depth)
        _same_bytes(got, want)
        assert got.strides == want.strides
        with pytest.raises(ValueError):
            cam.backproject(depth.T if depth.shape[0] != depth.shape[1] else depth[:, :0])

    @ORACLE_SETTINGS
    @given(_twists())
    def test_exp_se3_matches_norm_form(self, xi):
        """The rotation angle as ``math.sqrt(w.dot(w))``: the bits of
        ``np.linalg.norm(w)`` for a 1-D float vector, contiguous or not."""
        _same_bytes(se3.exp_se3(xi), oracles.exp_se3_reference(xi))
        strided = np.repeat(xi, 2)[::2]
        _same_bytes(se3.exp_se3(strided), oracles.exp_se3_reference(strided))

    def test_seed0_evaluation_replays_against_oracles(self, monkeypatch):
        """One evaluation on the end-to-end benchmark's seed-0 ElasticFusion
        input (10 frames at 56x42, dataset seed 2, fusion stride 2), with
        frame-to-frame RGB so that some tracking steps share one projection
        and others project for each term.  Each captured term call equals its
        oracle bytewise and its projection equals ``CameraIntrinsics.project``
        of the oracle's reference points; a run through every oracle kernel
        (terms, surfel sums, back-projection, twist exponential) ends on the
        same poses and frame statistics.  (The pipeline renders the model
        view at the previous frame's pose, so here two projections of one
        step hold the same bits; the two-target case of
        ``test_joint_tracking_terms_match_reference`` is the one that tells a
        wrongly shared projection apart.)"""
        dataset = make_icl_nuim_like_dataset(n_frames=10, width=56, height=42, seed=2)
        config = ElasticFusionConfig(frame_to_frame_rgb=True)
        calls = []
        geometric, photometric = ElasticFusion._geometric_terms, ElasticFusion._photometric_terms

        def captured_geometric(self, pts_world, proj, target):
            got = geometric(self, pts_world, proj, target)
            calls.append(("geo", pts_world, proj, None, target, got))
            return got

        def captured_photometric(self, pts_world, proj, obs, target):
            got = photometric(self, pts_world, proj, obs, target)
            calls.append(("rgb", pts_world, proj, obs, target, got))
            return got

        with monkeypatch.context() as mp:
            mp.setattr(ElasticFusion, "_geometric_terms", captured_geometric)
            mp.setattr(ElasticFusion, "_photometric_terms", captured_photometric)
            live = ElasticFusion(config, fusion_stride=2).run(dataset)

        steps = {"shared": 0, "own": 0}
        for i, (kind, pts_world, proj, obs, target, got) in enumerate(calls):
            pts_ref = se3.transform_points(se3.invert(target.pose), pts_world)
            u, v, _ = target.camera.project(pts_ref)
            for part, want in zip(proj, (pts_ref, pts_ref[:, 2], u, v)):
                _same_bytes(part, want)
            if kind == "geo":
                want = oracles.geometric_terms_reference(pts_world, target)
            else:
                want = oracles.photometric_terms_reference(pts_world, obs, target)
                if i > 0 and calls[i - 1][0] == "geo":
                    steps["shared" if proj is calls[i - 1][2] else "own"] += 1
            _same_bytes(got[0], want[0])
            _same_bytes(got[1], want[1])
            _same_bytes(np.float64(got[2]), np.float64(want[2]))
            assert type(got[2]) is float and got[3] == want[3]
        assert steps["shared"] > 20 and steps["own"] > 20 and len(calls) > 250

        with monkeypatch.context() as mp:
            mp.setattr(ElasticFusion, "_geometric_terms", lambda self, pts_world, proj, target: oracles.geometric_terms_reference(pts_world, target))
            mp.setattr(
                ElasticFusion,
                "_photometric_terms",
                lambda self, pts_world, proj, obs, target: oracles.photometric_terms_reference(pts_world, obs, target),
            )
            mp.setattr(SurfelMap, "update_by_index", oracles.update_by_index_reference)
            mp.setattr(CameraIntrinsics, "backproject", oracles.backproject_reference)
            mp.setattr(se3, "exp_se3", oracles.exp_se3_reference)
            reference = ElasticFusion(config, fusion_stride=2).run(dataset)
        _same_run(live, reference)


class TestElasticFusionState:
    def test_evaluations_do_not_leak_state(self, tiny_dataset):
        a = ElasticFusionConfig()
        b = ElasticFusionConfig(depth_cutoff=1.5, open_loop=True, fast_odometry=True)
        derived_before = set(tiny_dataset._derived)
        first = ElasticFusion(a, fusion_stride=2).run(tiny_dataset, n_frames=6)
        other = ElasticFusion(b, fusion_stride=2).run(tiny_dataset, n_frames=6)
        again = ElasticFusion(a, fusion_stride=2).run(tiny_dataset, n_frames=6)
        assert all(np.array_equal(p, q) for p, q in zip(first.estimated.poses, again.estimated.poses))
        assert first.frames == again.frames
        assert first.frames != other.frames
        # Frame products live for one evaluation, never in the dataset memo.
        assert set(tiny_dataset._derived) == derived_before

    def test_frame_inputs_are_read_only(self, tiny_dataset):
        frame = tiny_dataset.frame(3)
        inputs = ElasticFusion(ElasticFusionConfig(), fusion_stride=2)._frame_inputs(
            frame.depth, frame.intensity, tiny_dataset.camera
        )
        arrays = []
        for field in dataclasses.fields(inputs):
            value = getattr(inputs, field.name)
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, list) and value and isinstance(value[0], np.ndarray):
                arrays.extend(value)
        assert len(arrays) == 2 * len(inputs.cams) + 9
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
        # The frame the inputs were built from stays as it was.
        assert frame.intensity.flags.writeable and frame.depth.flags.writeable


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _same_icp(got, want):
    _same_bytes(got.pose, want.pose)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert type(got.inlier_fraction) is type(want.inlier_fraction) is float
    _same_bytes(np.float64(got.error), np.float64(want.error))
    _same_bytes(np.float64(got.inlier_fraction), np.float64(want.inlier_fraction))
    _same_bytes(np.array(got.error_history), np.array(want.error_history))


def _kernel_probe_scene():
    """The living room plus a cube, a second ball and a short, fat lamp base.

    The cube's centre and half extent are binary fractions, so points at
    equal depth inside it tie exactly in ``argmax``."""
    room = make_living_room_scene()
    extra = [
        Box((-0.5, -0.75, -0.375), (0.25, 0.25, 0.25), albedo=0.5),
        Sphere((1.2, -0.5, -0.6), 0.3, albedo=0.6),
        Cylinder((0.2, -0.9, 1.0), 0.35, 0.2, albedo=0.4),
    ]
    return Scene(room.primitives + extra, name="kernel-probe")


def _near_primitive_points(prim, rng, n):
    """Points in and around ``prim``, its centre (a zero-length offset) included."""
    if isinstance(prim, Box):
        rows = np.arange(n)
        signs = rng.choice([-1.0, 1.0], size=(n, 3))
        faces = rng.uniform(-1.0, 1.0, size=(n, 3))
        axis = rng.integers(0, 3, n)
        faces[rows, axis] = signs[rows, axis]
        edges = signs.copy()
        edges[rows, rng.integers(0, 3, n)] = rng.uniform(-1.0, 1.0, n)
        # Equal penetration on every axis: argmax ties inside the box.
        t = rng.integers(1, 16, size=(n, 1)) / 16.0 * prim.half_extents.min()
        ties = prim.center + signs * (prim.half_extents - t)
        local = np.concatenate([faces, edges, signs, rng.uniform(-1.5, 1.5, size=(n, 3))])
        return np.concatenate([prim.center + local * prim.half_extents, ties, prim.center[None, :]])
    if isinstance(prim, Sphere):
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scale = rng.uniform(0.0, 1.6, size=(n, 1)) * prim.radius
        return np.concatenate([prim.center + dirs * scale, prim.center[None, :]])
    if isinstance(prim, Cylinder):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radius = rng.uniform(0.0, 1.6, size=n) * prim.radius
        height = rng.uniform(-1.3, 1.3, size=n) * prim.half_height
        ring = np.stack([radius * np.cos(theta), height, radius * np.sin(theta)], axis=1)
        axis_pts = np.stack([np.zeros(n), height, np.zeros(n)], axis=1)
        return prim.center + np.concatenate([ring, axis_pts])
    return rng.uniform(-3.0, 3.0, size=(n, 3))


def _non_finite_points():
    return np.array(
        [
            [np.nan, 0.1, 0.2],
            [0.3, np.nan, np.nan],
            [np.inf, 0.0, 0.0],
            [-np.inf, 0.5, -0.5],
            [0.0, np.inf, -np.inf],
            [1e300, -1e300, 1e-300],
        ]
    )


def _kernel_probe_points(scene, rng, n=12):
    parts = [_near_primitive_points(p, rng, n) for p in scene.primitives]
    parts.append(rng.uniform(-3.0, 3.0, size=(60, 3)))
    pts = np.concatenate(parts)
    return pts[: (len(pts) // 6) * 6]


def _layouts(pts):
    """``(name, points)`` in the ``(N, 3)``, ``(H, W, 3)``, single ``(3,)`` and empty layouts."""
    yield "points", pts
    yield "image", pts.reshape(6, -1, 3)
    for i in (0, len(pts) // 2, len(pts) - 1):
        yield "single", pts[i]
    yield "empty", np.zeros((0, 3))


def _winners(scene, pts):
    values = np.stack([oracles.primitive_sdf_reference(p, pts) for p in scene.primitives])
    return values.argmin(axis=0)


def _maps(scene):
    """Analytic maps with and without holes, fresh and after motion."""
    wide = AnalyticSDFMap(scene, resolution=128, size_m=4.8, mu=0.1, seed=3)
    narrow = AnalyticSDFMap(scene, resolution=256, size_m=4.8, mu=0.012, seed=4)
    stale = AnalyticSDFMap(scene, resolution=64, size_m=4.8, mu=0.3, seed=5)
    stale.notify_motion(0.8, 0.4)
    clipped = AnalyticSDFMap(scene, resolution=512, size_m=4.8, mu=0.0005, sensor_sigma=0.01, seed=6)
    clipped.notify_motion(3.0, 9.0)
    return [wide, narrow, stale, clipped]


class TestKFusionKernelOracles:
    """The written-out KinectFusion kernels equal the originals kept in
    ``tests/oracles.py`` bit for bit."""

    @pytest.mark.parametrize("scene_name", ["probe", "office"])
    def test_primitives_match_reference(self, scene_name, rng):
        scene = _kernel_probe_scene() if scene_name == "probe" else make_office_scene()
        pts = np.concatenate([_kernel_probe_points(scene, rng), _non_finite_points()])
        with np.errstate(invalid="ignore", over="ignore"):
            for layout, probe in _layouts(pts):
                for prim in scene.primitives:
                    _same_bytes(prim.sdf(probe), oracles.primitive_sdf_reference(prim, probe))
                    _same_bytes(prim.gradient(probe), oracles.primitive_gradient_reference(prim, probe))

    def test_probes_reach_every_primitive(self, rng):
        """Ball, lamp, cube centre and box ties are each some point's nearest primitive."""
        scene = _kernel_probe_scene()
        winners = _winners(scene, _kernel_probe_points(scene, rng))
        counts = np.bincount(winners, minlength=len(scene.primitives))
        assert np.all(counts >= 3), counts
        cube = scene.primitives[-3]
        q = np.abs(_near_primitive_points(cube, rng, 12) - cube.center) - cube.half_extents
        inside_ties = (q.max(axis=1) < 0) & (q[:, 0] == q[:, 1]) & (q[:, 1] == q[:, 2])
        assert np.sum(inside_ties) >= 12

    @pytest.mark.parametrize("scene_name", ["probe", "living-room", "office"])
    def test_union_matches_reference(self, scene_name, rng):
        scene = {"probe": _kernel_probe_scene, "living-room": make_living_room_scene, "office": make_office_scene}[scene_name]()
        pts = np.concatenate([_kernel_probe_points(scene, rng), _non_finite_points()])
        with np.errstate(invalid="ignore", over="ignore"):
            for layout, probe in _layouts(pts):
                ref_sdf, ref_dist, ref_grad, ref_intensity = oracles.scene_union_reference(scene, probe)
                dist, grad = scene.sdf_and_gradient(probe)
                _same_bytes(dist, ref_dist)
                _same_bytes(grad, ref_grad)
                _same_bytes(scene.sdf(probe), ref_sdf)
                _same_bytes(scene.intensity(probe), ref_intensity)

    def test_error_model_matches_reference(self):
        scene = make_living_room_scene()
        seen = set()
        for resolution in (16, 64, 256, 512):
            for mu in (0.0005, 0.005, 0.02, 0.1, 0.5):
                for sensor_sigma in (0.004, 0.05):
                    m = AnalyticSDFMap(scene, resolution=resolution, size_m=4.8, mu=mu, sensor_sigma=sensor_sigma)
                    for translation, rotation in ((0.0, 0.0), (0.3, 0.1), (2.0, 6.0)):
                        m.notify_motion(translation, rotation)
                        for name in ("effective_sigma", "base_hole_fraction", "effective_hole_fraction"):
                            got, want = getattr(m, name), getattr(oracles, f"{name}_reference")(m)
                            assert type(got) is float and got == want and np.float64(got).tobytes() == np.float64(want).tobytes()
                        seen.add(m.base_hole_fraction)
                        seen.add(m.effective_hole_fraction)
        # The grid reaches both clip bounds of each fraction.
        assert {0.0, 0.85, 0.9} <= seen

    def test_sdf_query_matches_reference(self, rng):
        scene = _kernel_probe_scene()
        pts = np.concatenate([_kernel_probe_points(scene, rng), _non_finite_points()])
        holes = 0
        with np.errstate(invalid="ignore", over="ignore"):
            for m in _maps(scene):
                for layout, probe in list(_layouts(pts)) + [("few", pts[:7])]:
                    dist, grad = m.sdf_query(probe)
                    ref_dist, ref_grad = oracles.sdf_query_reference(m, probe)
                    _same_bytes(dist, ref_dist)
                    _same_bytes(grad, ref_grad)
                    holes += int(np.sum(np.isinf(dist)))
        assert holes > 0

    @staticmethod
    def _levels(dataset, index, config):
        kf = KinectFusion(config)
        pyramid, cams = kf._preprocess(dataset.frame(index).depth, dataset.camera)
        return kf, pyramid, cams

    @pytest.mark.parametrize("mu", [0.1, 0.012])
    def test_icp_matches_reference_on_pyramid_levels(self, tiny_dataset, rng, mu):
        config = KFusionConfig(mu=mu)
        kf, pyramid, cams = self._levels(tiny_dataset, 4, config)
        m = AnalyticSDFMap(tiny_dataset.scene, resolution=256, size_m=4.8, mu=mu, seed=7)
        m.integrate(pyramid[0], cams[0], tiny_dataset.trajectory[3], 3)
        m.notify_motion(0.02, 0.01)
        start = tiny_dataset.trajectory[3]
        level_points = [kf._valid_points(level, cam) for level, cam in zip(pyramid, cams)]
        for pts in level_points:
            for threshold in (0.0, 1e-5, 1e-2):
                jitter = se3.exp_se3(rng.normal(scale=[0.02, 0.02, 0.02, 0.01, 0.01, 0.01]))
                kwargs = dict(iterations=[6], termination_threshold=threshold, max_correspondence_distance=max(2.0 * mu, 0.1))
                got = icp_point_to_implicit(pts, m.sdf_query, jitter @ start, **kwargs)
                _same_icp(got, oracles.icp_point_to_implicit_reference(pts, m.sdf_query, jitter @ start, **kwargs))
                assert got.iterations > 0
        # All levels in one call, coarsest first, through point subsets.
        pts = np.concatenate(level_points[::-1])
        bounds = np.cumsum([0] + [len(p) for p in level_points[::-1]])
        subsets = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        for iterations in ((3, 2, 4), (0, 5, 1), (2, 2, 2)):
            kwargs = dict(iterations=iterations, point_subsets=subsets, termination_threshold=1e-6)
            _same_icp(
                icp_point_to_implicit(pts, m.sdf_query, start, **kwargs),
                oracles.icp_point_to_implicit_reference(pts, m.sdf_query, start, **kwargs),
            )

    def test_icp_holes_nan_and_too_few_inliers(self, rng):
        scene = make_living_room_scene()
        surface = rng.uniform(-1.8, 1.8, size=(300, 3)) * np.array([1.0, 0.6, 1.0])
        d, g = scene.sdf_and_gradient(surface)
        surface = surface - d[:, None] * g
        pose = se3.exp_se3(np.array([0.02, -0.01, 0.015, 0.01, -0.01, 0.02]))
        pts_cam = se3.transform_points(se3.invert(pose), surface)

        def holed(keep_every):
            def query(points):
                dist, grad = scene.sdf_and_gradient(points)
                dist = dist.copy()
                dist[1::keep_every] = np.inf
                dist[2::keep_every] = np.nan
                dist[3::keep_every] = -np.inf
                return dist, grad

            return query

        cases = [
            (pts_cam, holed(4), {}),
            (pts_cam, holed(2), {"max_correspondence_distance": 0.05}),
            # Every point is an outlier, or only five are inliers.
            (pts_cam, holed(4), {"max_correspondence_distance": 0.0}),
            (pts_cam[:9], holed(3), {}),
            # Fewer than six points, and a level subset of fewer than six.
            (pts_cam[:5], scene.sdf_and_gradient, {}),
            (pts_cam, scene.sdf_and_gradient, {"iterations": (2, 3), "point_subsets": [np.arange(4), np.arange(40)]}),
            (pts_cam, scene.sdf_and_gradient, {"iterations": (2,), "point_subsets": [np.arange(0)]}),
        ]
        with np.errstate(invalid="ignore"):
            for pts, query, kwargs in cases:
                _same_icp(
                    icp_point_to_implicit(pts, query, np.eye(4), **kwargs),
                    oracles.icp_point_to_implicit_reference(pts, query, np.eye(4), **kwargs),
                )

    @pytest.mark.parametrize("compute_size_ratio", [1, 2, 4, 8])
    @pytest.mark.parametrize("max_tracking_points", [1500, 100, None])
    def test_valid_points_match_reference(self, tiny_dataset, compute_size_ratio, max_tracking_points):
        config = KFusionConfig(compute_size_ratio=compute_size_ratio)
        kf, pyramid, cams = self._levels(tiny_dataset, 2, config)
        kf.max_tracking_points = max_tracking_points
        for level, cam in zip(pyramid, cams):
            depth = np.array(level)
            depth[0, :4] = [np.inf, np.nan, 0.0, -1.0]
            depth[-1, -1] = np.inf
            for d in (level, depth, np.zeros_like(depth)):
                got = kf._valid_points(d, cam)
                _same_bytes(got, oracles.valid_points_reference(kf, d, cam))
                _same_bytes(cam.backproject(d), oracles.backproject_reference(cam, d))
        with pytest.raises(ValueError):
            kf._valid_points(pyramid[0], cams[1])


def _nan_with_bits(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


#: NaN (the default one, one with a payload and a negative one), the
#: infinities and both zeros.
_SPECIALS = [
    np.nan,
    _nan_with_bits(0x7FF8000000000123),
    _nan_with_bits(0xFFF8000000000000),
    np.inf,
    -np.inf,
    -0.0,
    0.0,
]


def _reachable_quantiles():
    """Every ``1 - effective_hole_fraction`` with holes over a grid of the
    error model: the KFusion space's resolutions and truncation distances,
    plus settings that reach the 0.85 and 0.9 clip bounds, each after a range
    of camera motion since the last integration."""
    scene = make_living_room_scene()
    space = kfusion_design_space()
    grid = [(r, mu, 0.004) for r in space["volume_resolution"].values() for mu in space["mu"].values()]
    grid += [(512, 0.0005, 0.01), (16, 0.005, 0.05), (256, 0.012, 0.004)]
    qs = set()
    for resolution, mu, sensor_sigma in grid:
        m = AnalyticSDFMap(scene, resolution=resolution, size_m=4.8, mu=mu, sensor_sigma=sensor_sigma)
        for motion in (0.0, 0.01, 0.1, 0.4, 1.2, 4.0):
            m.notify_motion(motion, 0.0)
            if m.effective_hole_fraction > 0.0:
                qs.add(1.0 - m.effective_hole_fraction)
    return sorted(qs)


_REACHABLE_Q = _reachable_quantiles()


@st.composite
def _quantile_cases(draw):
    """A 1-D float64 array of 9 to 4,096 values, with ties, hole-like fields,
    wide gaps or specials, and a ``q`` the hole mask asks for, an end point
    or any.  Close neighbours interpolate to the same bits from either end,
    so the ``spread`` arrays (few values, each of its own magnitude) are the
    ones that tell numpy's two-sided lerp from a one-sided one."""
    n = draw(st.one_of(st.integers(9, 64), st.integers(65, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "spread", "ties", "zeros", "field"]))
    if kind == "normal":
        a = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    elif kind == "spread":
        a = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    elif kind == "ties":
        a = rng.integers(-3, 4, size=n) / 2.0
    elif kind == "zeros":
        a = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    else:
        phases = rng.uniform(-3.0, 3.0, size=(n, 3)) @ rng.uniform(2.0, 6.0, size=(4, 3)).T
        a = np.mean(np.sin(phases), axis=1)
    specials = draw(st.lists(st.sampled_from(_SPECIALS), max_size=6))
    a[rng.integers(0, n, size=len(specials))] = specials
    q = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0] + _REACHABLE_Q), st.floats(0.0, 1.0)))
    return a, q


def _layout(a):
    """Shape, strides and whether the memory under ``a`` is C-contiguous."""
    root = a if a.base is None else a.base
    return a.shape, a.strides, root.flags.c_contiguous


def _fresh_dataset(n_frames=6):
    ds = make_icl_nuim_like_dataset(n_frames=n_frames, width=40, height=30, seed=3)
    ds.prerender()
    return ds


def _same_run(got, want):
    assert len(got.estimated) == len(want.estimated)
    for p, q in zip(got.estimated.poses, want.estimated.poses):
        _same_bytes(p, q)
    assert [repr(dataclasses.astuple(f)) for f in got.frames] == [repr(dataclasses.astuple(f)) for f in want.frames]


@pytest.fixture(scope="module")
def cloud_dataset():
    return _fresh_dataset()


class TestExactTrackingKernels:
    """The tracking kernels without numpy's Python wrappers (the hole
    threshold, the ICP reductions) and the tracking clouds built once per
    dataset equal the wrapped, per-evaluation originals in
    ``tests/oracles.py`` bit for bit."""

    @ORACLE_SETTINGS
    @given(_quantile_cases())
    def test_linear_quantile_matches_numpy(self, case):
        a, q = case
        before = a.tobytes()
        with np.errstate(invalid="ignore"):
            want = np.quantile(a, q)
        got = linear_quantile(a, q)
        assert type(got) is float
        _same_bytes(np.float64(got), want)
        assert a.tobytes() == before

    def test_linear_quantile_edges(self):
        """NaN anywhere wins, ``-0.0``/``0.0`` ties resolve as numpy's
        partition does, an infinite maximum at ``q = 1`` gives numpy's NaN
        (``inf - inf`` in its lerp), and past ``t = 0.5`` the lerp runs from
        the upper neighbour (on the first two arrays a lerp from the lower one
        is one ulp off)."""
        ramp = np.linspace(-1.0, 1.0, 4096)
        cases = [
            (10.0 ** np.arange(-4, 5), 0.85),
            (3.0 ** np.arange(9), 0.7),
            (np.full(9, np.nan), 0.5),
            (np.r_[np.arange(8.0), np.nan], 0.0),
            (np.r_[np.arange(8.0), np.inf], 1.0),
            (np.r_[np.arange(8.0), -np.inf], 0.0),
            (np.array([0.0, -0.0] * 6), 0.5),
            (np.array([-0.0, 0.0] * 6), 1.0),
            (ramp, 0.1),
            (ramp[::-1].copy(), 0.85),
        ]
        # Every q of the error-model grid, whose clip bounds give 0.1 and 0.15.
        assert 1.0 - 0.9 in _REACHABLE_Q and 1.0 - 0.85 in _REACHABLE_Q
        cases += [(a, q) for a, _ in cases[:2] for q in _REACHABLE_Q]
        with np.errstate(invalid="ignore"):
            for a, q in cases:
                _same_bytes(np.float64(linear_quantile(a, q)), np.quantile(a, q))

    def test_hole_mask_matches_reference(self, rng):
        scene = _kernel_probe_scene()
        pts = np.concatenate([_kernel_probe_points(scene, rng), _non_finite_points()])
        dense = rng.uniform(-3.0, 3.0, size=(1022, 3))
        holes = 0
        with np.errstate(invalid="ignore", over="ignore"):
            for m in _maps(scene):
                for probe in (pts, dense, pts[:9], pts[:8], pts[:0]):
                    got = m._hole_mask(probe)
                    _same_bytes(got, oracles.hole_mask_reference(m, probe))
                    holes += int(got.sum())
        assert holes > 0

    @ORACLE_SETTINGS
    @given(st.integers(6, 3000), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.6]))
    def test_icp_matches_reference_on_drawn_residuals(self, n, seed, outlier_share):
        """The ICP error (a sum divided by the inlier count) and inlier index
        at sizes and magnitudes the scene tests do not reach."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2.0, 2.0, size=(n, 3))
        dist = rng.normal(scale=0.05, size=n) * 10.0 ** rng.integers(-4, 1)
        out = rng.random(n) < outlier_share
        dist[out] = rng.choice([np.inf, -np.inf, np.nan, 1.0], size=int(out.sum()))
        grad = rng.normal(size=(n, 3))
        grad /= np.linalg.norm(grad, axis=1, keepdims=True)

        def query(points):
            return dist, grad

        kwargs = dict(iterations=[3], termination_threshold=0.0, max_correspondence_distance=0.1)
        with np.errstate(invalid="ignore"):
            _same_icp(
                icp_point_to_implicit(pts, query, np.eye(4), **kwargs),
                oracles.icp_point_to_implicit_reference(pts, query, np.eye(4), **kwargs),
            )

    @pytest.mark.parametrize("compute_size_ratio", [1, 2, 4, 8])
    @pytest.mark.parametrize("max_tracking_points", [1500, 100, None])
    def test_memoized_cloud_stride_matches_reference(self, cloud_dataset, compute_size_ratio, max_tracking_points):
        """What ICP receives in ``run`` (a stride of the shared cloud) has the
        bytes and the layout of one evaluation's own tracking points."""
        config = KFusionConfig(compute_size_ratio=compute_size_ratio, pyramid_iterations=(2, 1, 1))
        kf = KinectFusion(config, max_tracking_points=max_tracking_points)
        kf.run(cloud_dataset)
        clouds = {k: v for k, v in cloud_dataset._derived.items() if k[0] == "kfusion-cloud"}
        assert sorted(clouds) == [("kfusion-cloud", i, 2, level) for i in range(1, 6) for level in range(3)]
        strided = 0
        for (_, i, radius, level), cloud in clouds.items():
            assert not cloud.flags.writeable and cloud.flags.c_contiguous and cloud.base is None
            pyramid, cams = cloud_dataset._derived[("kfusion-pyramid", i, radius)]
            got = kf._tracking_points(cloud)
            want = oracles.valid_points_reference(kf, pyramid[level], cams[level])
            _same_bytes(got, want)
            assert _layout(got) == _layout(want)
            assert got.base is (cloud if got is not cloud else None)
            strided += got is not cloud
        # At 40x30 only a budget of 100 or a ratio above 1 thins the clouds.
        assert strided > 0 or (compute_size_ratio == 1 and max_tracking_points != 100)

    def test_clouds_built_once_per_dataset(self, monkeypatch):
        built = []
        build = KinectFusion._tracking_cloud

        def counted(depth, camera):
            built.append(depth.shape)
            return build(depth, camera)

        monkeypatch.setattr(KinectFusion, "_tracking_cloud", staticmethod(counted))
        ds = _fresh_dataset()
        first = KinectFusion(KFusionConfig(compute_size_ratio=2)).run(ds)
        held = {k: v for k, v in ds._derived.items() if k[0] == "kfusion-cloud"}
        assert len(built) == len(held) == 5 * 3
        KinectFusion(KFusionConfig(mu=0.05, tracking_rate=2)).run(ds)
        again = {k: v for k, v in ds._derived.items() if k[0] == "kfusion-cloud"}
        assert len(built) == 15 and all(again[k] is held[k] for k in held) and again.keys() == held.keys()
        # An evaluation on a dataset whose memo was emptied equals the first.
        ds.clear_cache()
        _same_run(KinectFusion(KFusionConfig(compute_size_ratio=2)).run(ds), first)
        assert len(built) == 30

    @pytest.mark.parametrize(
        "config",
        [
            KFusionConfig(),
            KFusionConfig(volume_resolution=64, mu=0.025, compute_size_ratio=2, tracking_rate=2, integration_rate=3),
            KFusionConfig(compute_size_ratio=8, pyramid_iterations=(4, 0, 2), icp_threshold=1e-2),
        ],
    )
    def test_run_matches_reference_kernels(self, monkeypatch, config):
        """A whole run equals one through the original map query, ICP loop and
        per-evaluation back-projection."""
        live = KinectFusion(config).run(_fresh_dataset(8))
        queries = []

        def reference_query(m, points):
            queries.append((points.shape[0], m.effective_hole_fraction))
            return oracles.sdf_query_reference(m, points)

        with monkeypatch.context() as mp:
            mp.setattr(kfusion_module, "icp_point_to_implicit", oracles.icp_point_to_implicit_reference)
            mp.setattr(AnalyticSDFMap, "sdf_query", reference_query)
            mp.setattr(
                KinectFusion,
                "_tracking_cloud",
                staticmethod(lambda depth, camera: oracles.backproject_reference(camera, depth)[depth > 0]),
            )
            reference = KinectFusion(config).run(_fresh_dataset(8))
        _same_run(live, reference)
        # The hole threshold took its quantile on some of these queries.
        assert any(n > 8 and frac > 0.0 for n, frac in queries)
