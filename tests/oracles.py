"""Reference implementations the optimized engines are tested against.

The library grows every tree through
:func:`repro.core.tree_builder.grow_forest_hist`.  This module keeps, with
their arithmetic unchanged, the simpler implementations that grower is
compared with:

* :class:`ExactTreeRegressor` — the original per-node ``argsort`` split
  search on materialized rows;
* :func:`grow_tree_hist` — the histogram grower that grows one tree at a
  time;
* :func:`predict_trees_reference` — one ``predict`` call per tree;
* :func:`exact_forest` and :func:`per_tree_hist_forest` — a whole forest
  through either reference grower, with the per-tree generators and
  bootstrap draws of :meth:`repro.core.forest.RandomForestRegressor.fit`.

It also keeps the straightforward ElasticFusion kernels the flat-index
versions in :mod:`repro.slam` must match byte for byte:

* :func:`bilinear_sample_reference` — 2-D bilinear sampling by fancy
  indexing;
* :func:`normal_map_reference` — vertex-map normals by ``np.cross`` and
  ``np.linalg.norm``;
* :func:`downsample_view_reference`, :func:`geometric_terms_reference` and
  :func:`photometric_terms_reference` — the tracking residuals with
  boolean-mask gathers, ``np.cross``, ``np.linalg.norm`` and three
  bilinear calls per photometric term;
* :func:`predict_view_reference` — the surfel z-buffer that sorts all
  ``(2 * splat_radius + 1) ** 2`` splatted copies;
* :func:`update_by_index_reference` — per-surfel sums by ``np.add.at``;
* :func:`exp_se3_reference` — the twist exponential with its angle taken
  by ``np.linalg.norm``.

The design-space and Pareto kernels keep their first forms too:

* :func:`sample_reference` — ``DesignSpace.sample`` drawing, hashing and
  de-duplicating one ``Configuration`` per draw, and
  :func:`encoded_pool_reference`, the configuration-list pool built on it
  with its ``{Configuration: row}`` dictionary;
* :func:`pareto_mask_2d_reference` — the two-key ``lexsort`` sweep with its
  runs of identical rows.

And the KinectFusion kernels the written-out versions must match byte for
byte:

* :func:`primitive_sdf_reference` and :func:`primitive_gradient_reference`
  — every scene primitive through ``np.linalg.norm``, ``np.max`` and
  fancy-index assignment, and :func:`scene_union_reference`, the union
  evaluated primitive by primitive;
* :func:`scene_sdf_reference` — the union's SDF as ``min(axis=0)`` of the
  packed value matrix, and :func:`raycast_reference`, the sphere tracer
  that steps every ray through full-size boolean masks;
* :func:`icp_point_to_implicit_reference` — the tracking loop with
  boolean-mask gathers, ``np.cross``, ``np.mean`` of the inlier mask and
  ``np.mean(r * r)`` for the error;
* :func:`valid_points_reference` — the whole vertex map back-projected,
  then masked, then strided: one evaluation's tracking points, built per
  evaluation (the pipeline strides a cloud built once per dataset);
* :func:`hole_mask_reference` — the hole mask with ``np.mean`` of the
  4-wide field and ``np.quantile`` for its threshold;
* :func:`sdf_query_reference` and the ``*_reference`` error-model
  properties of :class:`~repro.slam.maps.AnalyticSDFMap` — ``np.sqrt`` and
  ``np.clip`` on scalars, and ``np.where`` over the hole mask even when it
  is empty.

Tests import it as ``oracles`` (pytest puts ``tests/`` on ``sys.path``;
``benchmarks/conftest.py`` does the same for the fit benchmarks).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.space import Configuration
from repro.core.tree import DecisionTreeRegressor
from repro.core.tree_builder import _NodeArrays
from repro.slam import se3
from repro.slam.filters import downsample_intensity, image_gradients
from repro.slam.icp import ICPResult, solve_increment
from repro.slam.scene import Box, Cylinder, Plane, Sphere
from repro.slam.se3 import invert, transform_points
from repro.utils.rng import RandomState, as_generator, spawn_generators


class ExactTreeRegressor(DecisionTreeRegressor):
    """The per-node sort-based CART splitter, fitted on materialized rows.

    For every node and every candidate feature it sorts the node's samples
    and scans all split positions between distinct consecutive values.  On
    losslessly binnable data it grows the same partitions as the histogram
    engine.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ExactTreeRegressor":
        """Fit the tree on features ``X`` (``(n, d)``) and targets ``y`` (``(n,)``)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        self._n_features = X.shape[1]
        rng = as_generator(self.random_state)
        n_feat_per_split = self._resolve_max_features(X.shape[1])

        # Growable node storage.
        feature: List[int] = []
        threshold: List[float] = []
        left: List[int] = []
        right: List[int] = []
        value: List[float] = []
        n_samples: List[int] = []
        impurity: List[float] = []

        def new_node(idx: np.ndarray) -> int:
            node_id = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            yv = y[idx]
            value.append(float(yv.mean()))
            n_samples.append(int(idx.size))
            impurity.append(float(yv.var()))
            return node_id

        # Iterative depth-first construction (explicit stack avoids recursion
        # limits for deep trees on large sample sets).
        root_idx = np.arange(X.shape[0])
        root = new_node(root_idx)
        stack: List[Tuple[int, np.ndarray, int]] = [(root, root_idx, 0)]
        max_depth_seen = 0
        while stack:
            node_id, idx, depth = stack.pop()
            max_depth_seen = max(max_depth_seen, depth)
            if self._should_stop(idx, y, depth):
                continue
            split = self._best_split(X, y, idx, n_feat_per_split, rng)
            if split is None:
                continue
            feat, thr, gain = split
            if gain < self.min_impurity_decrease:
                continue
            mask = X[idx, feat] <= thr
            left_idx = idx[mask]
            right_idx = idx[~mask]
            if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
                continue
            feature[node_id] = int(feat)
            threshold[node_id] = float(thr)
            left_id = new_node(left_idx)
            right_id = new_node(right_idx)
            left[node_id] = left_id
            right[node_id] = right_id
            stack.append((left_id, left_idx, depth + 1))
            stack.append((right_id, right_idx, depth + 1))

        self._nodes = _NodeArrays(
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=np.asarray(left, dtype=np.int64),
            right=np.asarray(right, dtype=np.int64),
            value=np.asarray(value, dtype=np.float64),
            n_samples=np.asarray(n_samples, dtype=np.int64),
            impurity=np.asarray(impurity, dtype=np.float64),
        )
        self._depth = max_depth_seen
        return self

    def _should_stop(self, idx: np.ndarray, y: np.ndarray, depth: int) -> bool:
        if idx.size < self.min_samples_split:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        yv = y[idx]
        if np.allclose(yv, yv[0]):
            return True
        return False

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        n_feat_per_split: int,
        rng: np.random.Generator,
    ) -> Optional[Tuple[int, float, float]]:
        """Best (feature, threshold, impurity decrease) over a random feature subset."""
        n_features = X.shape[1]
        if n_feat_per_split >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(n_features, size=n_feat_per_split, replace=False)
        y_node = y[idx]
        n = y_node.size
        parent_sse = float(np.sum((y_node - y_node.mean()) ** 2))
        best_gain = -np.inf
        best_feat = -1
        best_thr = 0.0
        min_leaf = self.min_samples_leaf
        for feat in candidates:
            x = X[idx, feat]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            ys = y_node[order]
            # Candidate split positions: between distinct consecutive x values.
            distinct = xs[1:] != xs[:-1]
            if not np.any(distinct):
                continue
            csum = np.cumsum(ys)
            csum_sq = np.cumsum(ys * ys)
            total_sum = csum[-1]
            total_sq = csum_sq[-1]
            # After position i (0-based) the left child holds samples 0..i.
            counts_left = np.arange(1, n)
            sum_left = csum[:-1]
            sq_left = csum_sq[:-1]
            counts_right = n - counts_left
            sum_right = total_sum - sum_left
            sq_right = total_sq - sq_left
            sse_left = sq_left - sum_left * sum_left / counts_left
            sse_right = sq_right - sum_right * sum_right / counts_right
            gain = parent_sse - (sse_left + sse_right)
            valid = distinct & (counts_left >= min_leaf) & (counts_right >= min_leaf)
            if not np.any(valid):
                continue
            gain = np.where(valid, gain, -np.inf)
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                best_feat = int(feat)
                best_thr = float(0.5 * (xs[pos] + xs[pos + 1]))
        if best_feat < 0:
            return None
        # Convert SSE decrease into per-sample (weighted variance) decrease,
        # normalized by the *node* size so min_impurity_decrease keeps the
        # same meaning at every depth (normalizing by the full dataset size
        # made deep splits look vanishingly small).
        return best_feat, best_thr, best_gain / n


class _NodeStore:
    """Growable breadth-first node storage for :func:`grow_tree_hist`."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")

    def __init__(self) -> None:
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []
        self.n_samples: List[int] = []
        self.impurity: List[float] = []

    def new_node(self, sw: float, swy: float, swy2: float) -> int:
        node_id = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        mean = swy / sw
        self.value.append(float(mean))
        self.n_samples.append(int(round(sw)))
        self.impurity.append(float(max(swy2 / sw - mean * mean, 0.0)))
        return node_id

    def finish(self) -> _NodeArrays:
        return _NodeArrays(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=np.float64),
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
            impurity=np.asarray(self.impurity, dtype=np.float64),
        )


def grow_tree_hist(
    binned: np.ndarray,
    bin_thresholds: Sequence[np.ndarray],
    y: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
    *,
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    min_impurity_decrease: float = 0.0,
    n_feat_per_split: Optional[int] = None,
    rng: RandomState = None,
) -> _NodeArrays:
    """Grow one regression tree breadth-first on a pre-binned matrix.

    Parameters
    ----------
    binned:
        ``(n, d)`` ``uint8`` bin indices (see
        :class:`repro.core.tree_builder.BinMapper`).
    bin_thresholds:
        Per-column float thresholds between consecutive bins; splitting at
        bin boundary ``b`` emits threshold ``bin_thresholds[j][b]``.
    y:
        ``(n,)`` regression targets.
    sample_weight:
        Optional ``(n,)`` non-negative weights.  Integer weight vectors are
        how the forest represents bootstrap resamples; ``min_samples_*`` and
        node sizes count *weighted* samples, matching a materialized
        resample exactly.  Zero-weight rows are ignored entirely.
    max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease:
        Usual CART stopping rules (on weighted counts / per-sample gain).
    n_feat_per_split:
        Features examined per node (``None`` for all); each frontier node
        draws its own subset — batched into one ``rng`` call per level.
    rng:
        Randomness for the feature subsets.

    Returns
    -------
    _NodeArrays
        Flat node arrays in breadth-first order.
    """
    binned = np.ascontiguousarray(binned, dtype=np.uint8)
    if binned.ndim != 2:
        raise ValueError(f"binned must be 2-D, got shape {binned.shape}")
    n, d = binned.shape
    if len(bin_thresholds) != d:
        raise ValueError("bin_thresholds must have one entry per column")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != n:
        raise ValueError("binned and y have inconsistent lengths")
    if sample_weight is None:
        w = np.ones(n, dtype=np.float64)
    else:
        w = np.asarray(sample_weight, dtype=np.float64).ravel()
        if w.shape[0] != n:
            raise ValueError("sample_weight must have one entry per row")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("sample_weight must be non-negative with at least one positive entry")
    gen = as_generator(rng)
    if n_feat_per_split is None or n_feat_per_split > d:
        n_feat_per_split = d

    n_bins = np.array([t.size + 1 for t in bin_thresholds], dtype=np.int64)
    B = int(n_bins.max())
    wy = w * y
    wy2 = wy * y

    # Growable node storage (breadth-first ids).
    store = _NodeStore()

    order = np.flatnonzero(w > 0).astype(np.int64)
    root_w = float(np.sum(w[order]))
    root_wy = float(np.sum(wy[order]))
    root_wy2 = float(np.sum(wy2[order]))
    store.new_node(root_w, root_wy, root_wy2)

    if B < 2:  # every column is constant: nothing to split on
        return store.finish()

    # Padded (d, B-1) lookup tables shared by every level: the float
    # threshold of each bin boundary and whether the boundary exists for
    # the column (columns with fewer bins than B have trailing padding).
    thr_mat = np.full((d, B - 1), np.nan, dtype=np.float64)
    for j, thr in enumerate(bin_thresholds):
        thr_mat[j, : thr.size] = thr
    boundary_ok = np.arange(B - 1)[None, :] < (n_bins[:, None] - 1)

    # Frontier state: per-slot node id and [start, end) segment of `order`,
    # plus the node's weighted statistics.  Histograms for the current level
    # are computed by scanning only the slots flagged in `scan_mask`; the
    # rest are derived as parent-minus-sibling from the previous level.
    node_of_slot = np.array([0], dtype=np.int64)
    seg_start = np.array([0], dtype=np.int64)
    seg_end = np.array([order.size], dtype=np.int64)
    Sw = np.array([root_w])
    Swy = np.array([root_wy])
    Swy2 = np.array([root_wy2])
    scan_mask = np.array([True])
    parent_ref = np.zeros(1, dtype=np.int64)  # previous-level slot of each parent
    sibling_ref = np.zeros(1, dtype=np.int64)  # current-level slot of the scanned sibling
    H_prev: Optional[tuple] = None

    depth = 0
    feat_arange = np.arange(d, dtype=np.int64)
    while node_of_slot.size:
        S = node_of_slot.size

        # --- 1. per-slot histograms of (w, w*y, w*y^2) over (feature, bin)
        size = S * d * B
        scan_slots = np.flatnonzero(scan_mask)
        if scan_slots.size:
            lengths = seg_end[scan_slots] - seg_start[scan_slots]
            rows = np.concatenate(
                [order[s:e] for s, e in zip(seg_start[scan_slots], seg_end[scan_slots])]
            )
            slot_rep = np.repeat(scan_slots, lengths)
            flat = ((slot_rep[:, None] * d + feat_arange[None, :]) * B + binned[rows]).ravel()
            Hw = np.bincount(flat, weights=np.repeat(w[rows], d), minlength=size)
            Hwy = np.bincount(flat, weights=np.repeat(wy[rows], d), minlength=size)
            Hwy2 = np.bincount(flat, weights=np.repeat(wy2[rows], d), minlength=size)
        else:  # pragma: no cover - at least one child per level is scanned
            Hw = np.zeros(size)
            Hwy = np.zeros(size)
            Hwy2 = np.zeros(size)
        Hw = Hw.reshape(S, d, B)
        Hwy = Hwy.reshape(S, d, B)
        Hwy2 = Hwy2.reshape(S, d, B)
        sub_slots = np.flatnonzero(~scan_mask)
        if sub_slots.size:
            assert H_prev is not None
            Hw[sub_slots] = H_prev[0][parent_ref[sub_slots]] - Hw[sibling_ref[sub_slots]]
            Hwy[sub_slots] = H_prev[1][parent_ref[sub_slots]] - Hwy[sibling_ref[sub_slots]]
            Hwy2[sub_slots] = H_prev[2][parent_ref[sub_slots]] - Hwy2[sibling_ref[sub_slots]]

        # --- 2. stopping rules that need no split search
        mean = Swy / Sw
        sse_node = Swy2 - Swy * mean
        # Purity tolerance mirroring the exact splitter's allclose() stop.
        tol = Sw * (1e-8 + 1e-5 * np.abs(mean)) ** 2
        eligible = (Sw >= min_samples_split) & (sse_node > tol)
        if max_depth is not None and depth >= max_depth:
            eligible[:] = False

        if not np.any(eligible):
            break

        # --- 3. per-node random feature subsets, one rng call per level
        if n_feat_per_split < d:
            ranks = np.argsort(gen.random((S, d)), axis=1, kind="stable")
            feat_mask = np.zeros((S, d), dtype=bool)
            np.put_along_axis(feat_mask, ranks[:, :n_feat_per_split], True, axis=1)
        else:
            feat_mask = np.ones((S, d), dtype=bool)

        # --- 4. split search: cumulative bin scans, all slots and features at once
        cw = np.cumsum(Hw, axis=2)[:, :, :-1]
        cwy = np.cumsum(Hwy, axis=2)[:, :, :-1]
        cwy2 = np.cumsum(Hwy2, axis=2)[:, :, :-1]
        rw = Sw[:, None, None] - cw
        rwy = Swy[:, None, None] - cwy
        rwy2 = Swy2[:, None, None] - cwy2
        valid = boundary_ok[None, :, :] & feat_mask[:, :, None]
        valid &= (cw >= min_samples_leaf) & (rw >= min_samples_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            sse_split = (cwy2 - cwy * cwy / cw) + (rwy2 - rwy * rwy / rw)
        gain = sse_node[:, None, None] - sse_split
        gain = np.where(valid, gain, -np.inf)
        flat_gain = gain.reshape(S, d * (B - 1))
        best = np.argmax(flat_gain, axis=1)
        slots_idx = np.arange(S)
        best_gain = flat_gain[slots_idx, best]
        best_feat = best // (B - 1)
        best_b = best - best_feat * (B - 1)
        # Per-sample (weighted variance) decrease, normalized by the *node*
        # size — not the full dataset — so min_impurity_decrease means the
        # same thing at every depth.
        split_ok = eligible & np.isfinite(best_gain) & ~(best_gain / Sw < min_impurity_decrease)
        sp = np.flatnonzero(split_ok)
        if sp.size == 0:
            break

        # --- 5. record splits and allocate children (left then right, slot order)
        lw = cw[sp, best_feat[sp], best_b[sp]]
        lwy = cwy[sp, best_feat[sp], best_b[sp]]
        lwy2 = cwy2[sp, best_feat[sp], best_b[sp]]
        rw_ = Sw[sp] - lw
        rwy_ = Swy[sp] - lwy
        rwy2_ = Swy2[sp] - lwy2
        n_child = 2 * sp.size
        child_node = np.empty(n_child, dtype=np.int64)
        for k, s in enumerate(sp):
            nid = int(node_of_slot[s])
            store.feature[nid] = int(best_feat[s])
            store.threshold[nid] = float(thr_mat[best_feat[s], best_b[s]])
            lid = store.new_node(float(lw[k]), float(lwy[k]), float(lwy2[k]))
            rid = store.new_node(float(rw_[k]), float(rwy_[k]), float(rwy2_[k]))
            store.left[nid] = lid
            store.right[nid] = rid
            child_node[2 * k] = lid
            child_node[2 * k + 1] = rid

        # --- 6. partition rows of the splitting slots into child segments
        sp_lengths = seg_end[sp] - seg_start[sp]
        rows = np.concatenate([order[s:e] for s, e in zip(seg_start[sp], seg_end[sp])])
        local = np.repeat(np.arange(sp.size, dtype=np.int64), sp_lengths)
        go_right = binned[rows, best_feat[sp][local]] > best_b[sp][local]
        key = local * 2 + go_right
        perm = np.argsort(key, kind="stable")
        order = rows[perm]
        child_len = np.bincount(key, minlength=n_child)
        bounds = np.concatenate(([0], np.cumsum(child_len)))

        # --- 7. next frontier: scan the smaller child, subtract the larger
        left_smaller = child_len[0::2] <= child_len[1::2]
        next_scan = np.empty(n_child, dtype=bool)
        next_scan[0::2] = left_smaller
        next_scan[1::2] = ~left_smaller
        next_sibling = np.arange(n_child, dtype=np.int64)
        next_sibling[0::2] += 1  # left's sibling is right …
        next_sibling[1::2] -= 1  # … and vice versa
        H_prev = (Hw[sp], Hwy[sp], Hwy2[sp])
        parent_ref = np.repeat(np.arange(sp.size, dtype=np.int64), 2)
        sibling_ref = next_sibling
        scan_mask = next_scan
        node_of_slot = child_node
        seg_start = bounds[:-1]
        seg_end = bounds[1:]
        new_Sw = np.empty(n_child)
        new_Swy = np.empty(n_child)
        new_Swy2 = np.empty(n_child)
        new_Sw[0::2], new_Sw[1::2] = lw, rw_
        new_Swy[0::2], new_Swy[1::2] = lwy, rwy_
        new_Swy2[0::2], new_Swy2[1::2] = lwy2, rwy2_
        Sw, Swy, Swy2 = new_Sw, new_Swy, new_Swy2
        depth += 1

    return store.finish()


def predict_trees_reference(trees: Sequence[object], X: np.ndarray) -> np.ndarray:
    """Per-tree predictions via the straightforward per-tree loop.

    Kept as the ground-truth implementation the flat engine is tested against
    (the seed's ``predict_all_trees`` behaviour).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    return np.stack([t.predict(X) for t in trees], axis=0)


def _bootstrap_draws(
    random_state: RandomState, n_estimators: int, n: int, bootstrap: bool
) -> List[Tuple[np.random.Generator, Optional[np.ndarray]]]:
    """Each tree's generator and resample rows (``None``: every row once).

    The same draws :meth:`repro.core.forest.RandomForestRegressor.fit` makes:
    one spawned generator per tree, whose first call is the bootstrap draw.
    """
    draws = []
    for rng in spawn_generators(random_state, n_estimators):
        rows = rng.integers(0, n, size=n) if bootstrap and n > 1 else None
        draws.append((rng, rows))
    return draws


def exact_forest(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_estimators: int,
    random_state: RandomState,
    bootstrap: bool = True,
    **tree_params,
) -> List[ExactTreeRegressor]:
    """Fit a forest's trees with the exact splitter on materialized resamples.

    ``tree_params`` are :class:`ExactTreeRegressor` hyper-parameters.  With
    the same seeds as a :class:`~repro.core.forest.RandomForestRegressor`,
    every tree sees the same resample and draws its feature subsets from the
    same generator.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    trees = []
    for rng, rows in _bootstrap_draws(random_state, n_estimators, X.shape[0], bootstrap):
        if rows is None:
            rows = np.arange(X.shape[0])
        trees.append(ExactTreeRegressor(random_state=rng, **tree_params).fit(X[rows], y[rows]))
    return trees


def per_tree_hist_forest(
    binned: np.ndarray,
    bin_thresholds: Sequence[np.ndarray],
    y: np.ndarray,
    *,
    n_estimators: int,
    random_state: RandomState,
    bootstrap: bool = True,
    max_features=0.75,
    **grow_params,
) -> List[_NodeArrays]:
    """Grow a forest's trees one at a time with :func:`grow_tree_hist`.

    Bootstrap resamples are integer weight vectors over ``binned``, as in
    :meth:`repro.core.forest.RandomForestRegressor.fit`; ``grow_params`` are
    the grower's stopping rules.  With the forest's seeds and
    hyper-parameters the node tables equal the forest's tree for tree.
    """
    n, d = np.shape(binned)
    n_feat_per_split = DecisionTreeRegressor(max_features=max_features)._resolve_max_features(d)
    trees = []
    for rng, rows in _bootstrap_draws(random_state, n_estimators, n, bootstrap):
        weights = None if rows is None else np.bincount(rows, minlength=n)
        trees.append(
            grow_tree_hist(
                binned,
                bin_thresholds,
                y,
                weights,
                n_feat_per_split=n_feat_per_split,
                rng=rng,
                **grow_params,
            )
        )
    return trees


# ---------------------------------------------------------------------------
# ElasticFusion kernels
# ---------------------------------------------------------------------------


def bilinear_sample_reference(image: np.ndarray, u: np.ndarray, v: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """2-D bilinear sampling at float pixel coordinates (``fill`` outside)."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    valid = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1) & np.isfinite(u) & np.isfinite(v)
    uc = np.clip(u, 0, w - 1.000001)
    vc = np.clip(v, 0, h - 1.000001)
    x0 = np.floor(uc).astype(np.int64)
    y0 = np.floor(vc).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = uc - x0
    fy = vc - y0
    val = (
        img[y0, x0] * (1 - fx) * (1 - fy)
        + img[y0, x1] * fx * (1 - fy)
        + img[y1, x0] * (1 - fx) * fy
        + img[y1, x1] * fx * fy
    )
    return np.where(valid, val, fill)


def normal_map_reference(vertices: np.ndarray) -> np.ndarray:
    """Per-pixel normals from central differences of a vertex map."""
    v = np.asarray(vertices, dtype=np.float64)
    dx = np.zeros_like(v)
    dy = np.zeros_like(v)
    dx[:, 1:-1] = v[:, 2:] - v[:, :-2]
    dy[1:-1, :] = v[2:, :] - v[:-2, :]
    n = np.cross(dy, dx)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    valid = (v[..., 2] > 0)[..., None] & (norm > 1e-12)
    return np.where(valid, n / np.maximum(norm, 1e-12), 0.0)


def _project_to_indices_reference(camera, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64)
    z = pts[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = camera.fx * pts[..., 0] / z + camera.cx
        v = camera.fy * pts[..., 1] / z + camera.cy
    valid = (
        (z > 1e-6)
        & np.isfinite(u)
        & np.isfinite(v)
        & (u >= 0)
        & (u <= camera.width - 1)
        & (v >= 0)
        & (v <= camera.height - 1)
    )
    cols = np.clip(np.round(u).astype(np.int64), 0, camera.width - 1)
    rows = np.clip(np.round(v).astype(np.int64), 0, camera.height - 1)
    return rows, cols, valid


def downsample_view_reference(view, factor: int):
    """A tracking target at ``1 / factor`` resolution (strided views)."""
    if factor == 1:
        return view
    cam = view.camera.scaled(factor)
    h, w = cam.height, cam.width
    return SimpleNamespace(
        pose=view.pose,
        camera=cam,
        vertices=view.vertices[::factor, ::factor][:h, :w],
        normals=view.normals[::factor, ::factor][:h, :w],
        intensity=downsample_intensity(view.intensity, factor),
        valid=view.valid[::factor, ::factor][:h, :w],
    )


def geometric_terms_reference(pts_world: np.ndarray, target) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """Point-to-plane normal equations against a reference view."""
    T_wc = invert(target.pose)
    pts_ref = transform_points(T_wc, pts_world)
    rows, cols, in_image = _project_to_indices_reference(target.camera, pts_ref)
    valid = in_image & target.valid[rows, cols]
    if not np.any(valid):
        return np.zeros((6, 6)), np.zeros(6), float("inf"), 0
    q = target.vertices[rows[valid], cols[valid]]
    n = target.normals[rows[valid], cols[valid]]
    p = pts_world[valid]
    dist = np.linalg.norm(p - q, axis=1)
    close = dist < 0.15
    if not np.any(close):
        return np.zeros((6, 6)), np.zeros(6), float("inf"), 0
    p, q, n = p[close], q[close], n[close]
    r = np.sum(n * (p - q), axis=1)
    J = np.concatenate([n, np.cross(p, n)], axis=1)
    return J.T @ J, J.T @ r, float(np.mean(r * r)), int(r.size)


def photometric_terms_reference(
    pts_world: np.ndarray, obs_intensity: np.ndarray, target
) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """Photometric (direct) normal equations against a reference view."""
    cam = target.camera
    T_wc = invert(target.pose)
    R_wc = T_wc[:3, :3]
    pts_ref = transform_points(T_wc, pts_world)
    z = pts_ref[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * pts_ref[:, 0] / z + cam.cx
        v = cam.fy * pts_ref[:, 1] / z + cam.cy
    valid = (z > 0.05) & np.isfinite(u) & np.isfinite(v) & (u >= 1) & (u <= cam.width - 2) & (v >= 1) & (v <= cam.height - 2)
    if not np.any(valid):
        return np.zeros((6, 6)), np.zeros(6), float("inf"), 0
    gx_img, gy_img = image_gradients(target.intensity)
    i_ref = bilinear_sample_reference(target.intensity, u[valid], v[valid])
    gx = bilinear_sample_reference(gx_img, u[valid], v[valid])
    gy = bilinear_sample_reference(gy_img, u[valid], v[valid])
    r = i_ref - obs_intensity[valid]
    zv = z[valid]
    xv, yv = pts_ref[valid, 0], pts_ref[valid, 1]
    d_ref = np.stack(
        [
            gx * cam.fx / zv,
            gy * cam.fy / zv,
            -(gx * cam.fx * xv + gy * cam.fy * yv) / (zv * zv),
        ],
        axis=1,
    )
    d_world = d_ref @ R_wc
    p = pts_world[valid]
    J = np.concatenate([d_world, np.cross(p, d_world)], axis=1)
    huber = 0.1
    w = np.where(np.abs(r) < huber, 1.0, huber / np.maximum(np.abs(r), 1e-9))
    Jw = J * w[:, None]
    return Jw.T @ J, Jw.T @ r, float(np.mean(w * r * r)), int(r.size)


def update_by_index_reference(
    m,
    indices: np.ndarray,
    points_world: np.ndarray,
    normals_world: np.ndarray,
    intensities: np.ndarray,
    weight: float,
    frame_index: int,
) -> int:
    """:meth:`~repro.slam.surfel.SurfelMap.update_by_index` of ``m``, with
    its per-surfel sums taken by ``np.add.at``."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    nrm = np.asarray(normals_world, dtype=np.float64).reshape(-1, 3)
    col = np.asarray(intensities, dtype=np.float64).reshape(-1)
    if idx.size == 0:
        return 0
    if np.any(idx < 0) or np.any(idx >= m.n_surfels):
        raise IndexError("surfel indices out of range")
    uniq, inverse = np.unique(idx, return_inverse=True)
    k = uniq.size
    w_acc = np.zeros(k)
    p_acc = np.zeros((k, 3))
    n_acc = np.zeros((k, 3))
    c_acc = np.zeros(k)
    np.add.at(w_acc, inverse, weight)
    np.add.at(p_acc, inverse, pts * weight)
    np.add.at(n_acc, inverse, nrm * weight)
    np.add.at(c_acc, inverse, col * weight)
    conf_old = m.confidences[uniq]
    denom = conf_old + w_acc
    m.positions[uniq] = (m.positions[uniq] * conf_old[:, None] + p_acc) / denom[:, None]
    blended = m.normals[uniq] * conf_old[:, None] + n_acc
    norms = np.linalg.norm(blended, axis=1, keepdims=True)
    m.normals[uniq] = blended / np.maximum(norms, 1e-12)
    m.intensities[uniq] = (m.intensities[uniq] * conf_old + c_acc) / denom
    m.confidences[uniq] = denom
    m.timestamps[uniq] = frame_index
    return int(k)


def predict_view_reference(
    surfels,
    camera,
    pose_cam_to_world: np.ndarray,
    confidence_threshold: float = 0.0,
    max_depth: float = 10.0,
    splat_radius: int = 1,
) -> Dict[str, np.ndarray]:
    """Splat a :class:`~repro.slam.surfel.SurfelMap`'s active surfels into a
    virtual camera, z-buffered by one stable sort of every splatted copy."""
    h, w = camera.height, camera.width
    out = {
        "depth": np.zeros((h, w)),
        "vertices": np.zeros((h, w, 3)),
        "normals": np.zeros((h, w, 3)),
        "intensity": np.zeros((h, w)),
        "index": np.full((h, w), -1, dtype=np.int64),
    }
    if surfels.n_surfels == 0:
        return out
    mask = surfels.active_mask(confidence_threshold)
    idx_active = np.flatnonzero(mask)
    if idx_active.size == 0:
        return out
    pts_world = surfels.positions[idx_active]
    T_wc = invert(pose_cam_to_world)
    pts_cam = transform_points(T_wc, pts_world)
    rows, cols, valid = _project_to_indices_reference(camera, pts_cam)
    z = pts_cam[:, 2]
    valid &= (z > 0.05) & (z < max_depth)
    if not np.any(valid):
        return out
    rows, cols, z = rows[valid], cols[valid], z[valid]
    surfel_ids = idx_active[valid]
    if splat_radius > 0:
        offsets = [(dr, dc) for dr in range(-splat_radius, splat_radius + 1) for dc in range(-splat_radius, splat_radius + 1)]
        all_rows = np.concatenate([np.clip(rows + dr, 0, h - 1) for dr, _ in offsets])
        all_cols = np.concatenate([np.clip(cols + dc, 0, w - 1) for _, dc in offsets])
        all_z = np.concatenate([z] * len(offsets))
        all_ids = np.concatenate([surfel_ids] * len(offsets))
    else:
        all_rows, all_cols, all_z, all_ids = rows, cols, z, surfel_ids
    order = np.argsort(-all_z, kind="stable")
    all_rows, all_cols, all_z, all_ids = all_rows[order], all_cols[order], all_z[order], all_ids[order]
    out["depth"][all_rows, all_cols] = all_z
    out["index"][all_rows, all_cols] = all_ids
    out["vertices"][all_rows, all_cols] = surfels.positions[all_ids]
    out["normals"][all_rows, all_cols] = surfels.normals[all_ids]
    out["intensity"][all_rows, all_cols] = surfels.intensities[all_ids]
    return out


# ---------------------------------------------------------------------------
# KinectFusion kernels
# ---------------------------------------------------------------------------

_SDF_EPS = 1e-9


def sphere_sdf_reference(sphere, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return np.linalg.norm(pts - sphere.center, axis=-1) - sphere.radius


def sphere_gradient_reference(sphere, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    diff = pts - sphere.center
    norm = np.linalg.norm(diff, axis=-1, keepdims=True)
    return diff / np.maximum(norm, _SDF_EPS)


def box_sdf_reference(pts: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Box SDF; ``center``/``half_extents`` broadcast against ``(..., 3)`` points."""
    q = np.abs(pts - center) - half_extents
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(np.max(q, axis=-1), 0.0)
    return outside + inside


def box_gradient_reference(pts: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Box SDF gradient; ``center``/``half_extents`` broadcast like :func:`box_sdf_reference`."""
    local = pts - center
    q = np.abs(local) - half_extents
    sign = np.where(local >= 0, 1.0, -1.0)
    outside_vec = np.maximum(q, 0.0) * sign
    outside_norm = np.linalg.norm(outside_vec, axis=-1, keepdims=True)
    grad_out = outside_vec / np.maximum(outside_norm, _SDF_EPS)
    # Inside: gradient points along the axis of smallest penetration.
    axis = np.argmax(q, axis=-1)
    grad_in = np.zeros_like(local)
    idx = np.indices(axis.shape)
    grad_in[(*idx, axis)] = np.take_along_axis(sign, axis[..., None], axis=-1)[..., 0]
    inside_mask = (outside_norm[..., 0] < _SDF_EPS)[..., None]
    return np.where(inside_mask, grad_in, grad_out)


def cylinder_sdf_reference(cylinder, points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64) - cylinder.center
    radial = np.linalg.norm(pts[..., [0, 2]], axis=-1) - cylinder.radius
    vertical = np.abs(pts[..., 1]) - cylinder.half_height
    outside = np.linalg.norm(np.stack([np.maximum(radial, 0.0), np.maximum(vertical, 0.0)], axis=-1), axis=-1)
    inside = np.minimum(np.maximum(radial, vertical), 0.0)
    return outside + inside


def numerical_gradient_reference(fn, points: np.ndarray, h: float = 1e-5) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    grad = np.zeros_like(pts)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = h
        grad[..., axis] = (fn(pts + offset) - fn(pts - offset)) / (2.0 * h)
    norm = np.linalg.norm(grad, axis=-1, keepdims=True)
    return grad / np.maximum(norm, _SDF_EPS)


def primitive_sdf_reference(prim, points: np.ndarray) -> np.ndarray:
    """The SDF of one shipped primitive type."""
    pts = np.asarray(points, dtype=np.float64)
    if type(prim) is Plane:
        n = prim.normal
        return pts[..., 0] * n[0] + pts[..., 1] * n[1] + pts[..., 2] * n[2] - prim.offset
    if type(prim) is Sphere:
        return sphere_sdf_reference(prim, pts)
    if type(prim) is Box:
        return box_sdf_reference(pts, prim.center, prim.half_extents)
    if type(prim) is Cylinder:
        return cylinder_sdf_reference(prim, pts)
    raise TypeError(f"no reference for {type(prim).__name__}")


def primitive_gradient_reference(prim, points: np.ndarray) -> np.ndarray:
    """The SDF gradient of one shipped primitive type."""
    pts = np.asarray(points, dtype=np.float64)
    if type(prim) is Plane:
        return np.broadcast_to(prim.normal, pts.shape).copy()
    if type(prim) is Sphere:
        return sphere_gradient_reference(prim, pts)
    if type(prim) is Box:
        return box_gradient_reference(pts, prim.center, prim.half_extents)
    if type(prim) is Cylinder:
        return numerical_gradient_reference(lambda p: cylinder_sdf_reference(prim, p), pts)
    raise TypeError(f"no reference for {type(prim).__name__}")


def scene_union_reference(scene, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The union evaluated primitive by primitive: ``(sdf, dist, grad, intensity)``."""
    pts = np.asarray(points, dtype=np.float64)
    values = np.stack([primitive_sdf_reference(p, pts) for p in scene.primitives], axis=0)
    winner = values.argmin(axis=0)
    dist = np.take_along_axis(values, winner[None, ...], axis=0)[0]
    grad = np.zeros_like(pts)
    intensity = np.zeros(pts.shape[:-1])
    for i, prim in enumerate(scene.primitives):
        mask = winner == i
        if not np.any(mask):
            continue
        grad[mask] = primitive_gradient_reference(prim, pts[mask])
        local = pts[mask]
        s = prim.texture_scale
        tex = (
            0.5
            + 0.25 * np.sin(s * local[..., 0]) * np.cos(s * local[..., 2])
            + 0.15 * np.sin(0.7 * s * local[..., 1] + 1.3)
        )
        intensity[mask] = np.clip(prim.albedo * tex, 0.0, 1.0)
    return values.min(axis=0), dist, grad, intensity


def scene_sdf_reference(scene, points: np.ndarray) -> np.ndarray:
    """``Scene.sdf`` as ``min(axis=0)`` of the packed ``(n_primitives, N)`` value matrix."""
    pts = np.asarray(points, dtype=np.float64)
    return scene._values(pts.reshape(-1, 3)).min(axis=0).reshape(pts.shape[:-1])


def raycast_reference(
    scene,
    origins: np.ndarray,
    directions: np.ndarray,
    max_depth: float = 10.0,
    max_steps: int = 64,
    tolerance: float = 1e-3,
) -> Tuple[np.ndarray, np.ndarray]:
    """``Scene.raycast`` over full-size masks: every step gathers the active
    rays by a boolean mask and scatters their hits and distances back."""
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    o, d = np.broadcast_arrays(o, d)
    shape = o.shape[:-1]
    t = np.zeros(shape, dtype=np.float64)
    active = np.ones(shape, dtype=bool)
    hit = np.zeros(shape, dtype=bool)
    for _ in range(max_steps):
        if not np.any(active):
            break
        pts = o[active] + t[active, None] * d[active]
        dist = scene_sdf_reference(scene, pts)
        hit_now = dist < tolerance
        idx = np.flatnonzero(active.ravel())
        flat_hit = np.zeros(active.size, dtype=bool)
        flat_hit[idx[hit_now]] = True
        hit |= flat_hit.reshape(shape)
        # Advance the remaining active rays.
        t_flat = t.ravel()
        t_flat[idx] += np.maximum(dist, tolerance * 0.5)
        t = t_flat.reshape(shape)
        active = active & ~hit & (t < max_depth)
    return t, hit


def icp_point_to_implicit_reference(
    points_cam: np.ndarray,
    sdf_query,
    initial_pose: np.ndarray,
    iterations: Sequence[int] = (10,),
    point_subsets: Optional[Sequence[np.ndarray]] = None,
    termination_threshold: float = 1e-5,
    max_correspondence_distance: float = 0.3,
    damping: float = 1e-6,
) -> ICPResult:
    """Gauss-Newton alignment of a camera-frame cloud to an implicit surface."""
    pts = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    T = np.array(initial_pose, dtype=np.float64)
    total_iterations = 0
    error = float("inf")
    inlier_fraction = 0.0
    history: List[float] = []
    if pts.shape[0] < 6:
        return ICPResult(pose=T, iterations=0, error=error, converged=False, inlier_fraction=0.0)

    n_levels = len(iterations)
    for level in range(n_levels):
        level_iters = int(iterations[level])
        if level_iters <= 0:
            continue
        if point_subsets is not None:
            idx = np.asarray(point_subsets[level])
            level_pts = pts[idx] if idx.size > 0 else pts
        else:
            level_pts = pts
        if level_pts.shape[0] < 6:
            continue
        prev_error = None
        for _ in range(level_iters):
            p_world = se3.transform_points(T, level_pts)
            dist, grad = sdf_query(p_world)
            dist = np.asarray(dist, dtype=np.float64).reshape(-1)
            grad = np.asarray(grad, dtype=np.float64).reshape(-1, 3)
            finite = np.isfinite(dist)
            inliers = finite & (np.abs(dist) < max_correspondence_distance)
            inlier_fraction = float(np.mean(inliers)) if inliers.size else 0.0
            if np.count_nonzero(inliers) < 6:
                break
            r = dist[inliers]
            n = grad[inliers]
            pw = p_world[inliers]
            J = np.concatenate([n, np.cross(pw, n)], axis=1)
            JtJ = J.T @ J
            Jtr = J.T @ r
            delta = solve_increment(JtJ, Jtr, damping=damping)
            T = se3.exp_se3(delta) @ T
            total_iterations += 1
            error = float(np.mean(r * r))
            history.append(error)
            if prev_error is not None and abs(prev_error - error) < termination_threshold:
                prev_error = error
                break
            prev_error = error
    converged = np.isfinite(error) and error < max_correspondence_distance**2
    return ICPResult(
        pose=T,
        iterations=total_iterations,
        error=error,
        converged=bool(converged),
        inlier_fraction=inlier_fraction,
        error_history=history,
    )


def exp_se3_reference(xi: np.ndarray) -> np.ndarray:
    """:func:`repro.slam.se3.exp_se3` with the rotation angle taken by
    ``np.linalg.norm``."""
    xi = np.asarray(xi, dtype=np.float64).reshape(6)
    v, w = xi[:3], xi[3:]
    theta = float(np.linalg.norm(w))
    T = np.eye(4)
    if theta < 1e-12:
        W = se3.hat(w)
        T[:3, :3] = np.eye(3) + W
        V = np.eye(3) + 0.5 * W
    else:
        K = se3.hat(w / theta)
        KK = K @ K
        sin, cos = np.sin(theta), np.cos(theta)
        T[:3, :3] = np.eye(3) + sin * K + (1.0 - cos) * KK
        V = np.eye(3) + (1.0 - cos) / theta * K + (theta - sin) / theta * KK
    T[:3, 3] = V @ v
    return T


def backproject_reference(camera, depth: np.ndarray) -> np.ndarray:
    """Back-project a depth map into a camera-frame vertex map (H, W, 3)."""
    depth = np.asarray(depth, dtype=np.float64)
    if depth.shape != (camera.height, camera.width):
        raise ValueError(f"depth shape {depth.shape} does not match intrinsics ({camera.height}, {camera.width})")
    u, v = camera.pixel_grid()
    valid = np.isfinite(depth) & (depth > 0)
    z = np.where(valid, depth, 0.0)
    x = (u - camera.cx) / camera.fx * z
    y = (v - camera.cy) / camera.fy * z
    return np.stack([x, y, z], axis=-1)


def valid_points_reference(kfusion, depth: np.ndarray, camera) -> np.ndarray:
    """:meth:`~repro.slam.kfusion.KinectFusion._valid_points` of ``kfusion``."""
    vertices = backproject_reference(camera, depth)
    mask = depth > 0
    pts = vertices[mask]
    budget = None
    if kfusion.max_tracking_points is not None:
        budget = kfusion.max_tracking_points
    if kfusion.config.compute_size_ratio > 1:
        base = budget if budget is not None else pts.shape[0]
        budget = max(int(base / kfusion.config.compute_size_ratio), 60)
    if budget is not None and pts.shape[0] > budget:
        stride = int(np.ceil(pts.shape[0] / budget))
        pts = pts[::stride]
    return pts


def base_hole_fraction_reference(m) -> float:
    narrow_voxel = max(1.5 * m.voxel_size - m.mu, 0.0) / max(1.5 * m.voxel_size, 1e-9)
    narrow_noise = max(3.0 * m.sensor_sigma - m.mu, 0.0) / max(3.0 * m.sensor_sigma, 1e-9)
    return float(np.clip(0.6 * narrow_voxel + 0.5 * narrow_noise, 0.0, 0.85))


def effective_sigma_reference(m) -> float:
    base = np.sqrt(m.quantization_sigma**2 + m.smearing_sigma**2 + (0.5 * m.sensor_sigma) ** 2)
    return float(base * (1.0 + m.staleness_penalty))


def effective_hole_fraction_reference(m) -> float:
    stale_holes = min(0.25 * m._motion_since_integration, 0.4)
    return float(np.clip(base_hole_fraction_reference(m) + stale_holes, 0.0, 0.9))


def sdf_query_reference(m, points_world: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`~repro.slam.maps.AnalyticSDFMap.sdf_query` of map ``m`` over
    :func:`scene_union_reference`."""
    pts = np.asarray(points_world, dtype=np.float64).reshape(-1, 3)
    _, dist, grad, _ = scene_union_reference(m.scene, pts)
    phases = pts @ m._wave_freq.T + m._wave_phase
    bias = np.sin(phases) @ m._wave_amp
    dist = dist + effective_sigma_reference(m) * bias
    dist = np.where(hole_mask_reference(m, pts), np.inf, dist)
    return dist, grad


def hole_mask_reference(m, points: np.ndarray) -> np.ndarray:
    """:meth:`~repro.slam.maps.AnalyticSDFMap._hole_mask` of map ``m``."""
    frac = effective_hole_fraction_reference(m)
    if frac <= 0.0:
        return np.zeros(points.shape[0], dtype=bool)
    phases = points @ m._hole_freq.T + m._hole_phase
    field = np.mean(np.sin(phases), axis=1)
    threshold = np.quantile(field, 1.0 - frac) if points.shape[0] > 8 else 1.0 - 2.0 * frac
    return field > threshold


# ---------------------------------------------------------------------------
# Design-space sampling and the 2-D Pareto sweep
# ---------------------------------------------------------------------------


def sample_reference(
    space, n: int, rng: RandomState = None, distinct: bool = True, max_attempts: int = 50
) -> List[Configuration]:
    """``DesignSpace.sample`` as it was: one hashed ``Configuration`` per draw."""
    if n < 0:
        raise ValueError("cannot sample a negative number of configurations")
    gen = as_generator(rng)
    if distinct and space.is_enumerable and space.cardinality <= n:
        return space.enumerate()
    configs: List[Configuration] = []
    seen = set()
    attempts = 0
    while len(configs) < n and attempts < max_attempts:
        batch = max(n - len(configs), 1)
        draws = [p.sample(gen, size=batch) for p in space.parameters]
        for row in zip(*draws):
            c = Configuration(space.parameter_names, list(row))
            if distinct:
                if c in seen:
                    continue
                seen.add(c)
            configs.append(c)
            if len(configs) >= n:
                break
        attempts += 1
    return configs[:n]


def encoded_pool_reference(space, pool_size: Optional[int], rng: RandomState = None, include=()):
    """``(configs, X, {config: row})`` of the configuration-list pool.

    ``build_pool`` over :func:`sample_reference` for a sampled pool (the
    full enumeration when the space fits in ``pool_size``), absent
    ``include`` entries appended in order, encoded by ``space.encode``.
    """
    if space.is_enumerable and (pool_size is None or space.cardinality <= pool_size):
        pool = space.enumerate()
    else:
        pool = sample_reference(space, 20_000 if pool_size is None else pool_size, rng)
    existing = set(pool)
    for c in include:
        if c not in existing:
            pool.append(c)
            existing.add(c)
    return pool, space.encode(pool), {c: i for i, c in enumerate(pool)}


def pareto_mask_2d_reference(values: np.ndarray) -> np.ndarray:
    """Fully vectorized O(n log n) sweep for the bi-objective case.

    After sorting by (first, second) objective, a point is non-dominated iff
    its second objective strictly undercuts the running minimum of everything
    before it.  Exact duplicates of a non-dominated point are also kept: in
    the sorted order they form a contiguous run starting at the point that
    achieved the minimum, so keep-status is broadcast across runs of
    identical rows.
    """
    n = values.shape[0]
    f0, f1 = values[:, 0], values[:, 1]
    # Sort by first objective ascending, ties broken by second ascending.
    order = np.lexsort((f1, f0))
    f1_sorted = f1[order]
    # Running minimum of the second objective over strictly-preceding points.
    prev_min = np.empty(n, dtype=np.float64)
    prev_min[0] = np.inf
    np.minimum.accumulate(f1_sorted[:-1], out=prev_min[1:])
    keep_strict = f1_sorted < prev_min
    # Runs of identical (f0, f1) rows inherit the keep-status of their head.
    row_sorted = values[order]
    run_head = np.empty(n, dtype=bool)
    run_head[0] = True
    run_head[1:] = np.any(row_sorted[1:] != row_sorted[:-1], axis=1)
    run_id = np.cumsum(run_head) - 1
    keep_sorted = keep_strict[np.flatnonzero(run_head)][run_id]
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_sorted
    return mask
