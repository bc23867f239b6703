"""CART regression tree built from scratch on NumPy.

HyperMapper fits one randomized decision forest per objective; the forest in
:mod:`repro.core.forest` bags these trees.  Two split engines are available:

* ``splitter="hist"`` (default) — the histogram-binned, frontier-batched
  engine of :mod:`repro.core.tree_builder`: features are quantized into at
  most 255 ``uint8`` bins once, split search is cumulative bin-statistic
  scans vectorized across all features of all frontier nodes, and bootstrap
  resamples are per-row weight vectors.
* ``splitter="exact"`` — the original per-node ``argsort`` split search,
  kept as the bit-exact reference implementation.

Prediction walks all samples level-by-level with array gathers regardless of
how the tree was fitted (both engines emit the same flat node arrays with
ordinary float thresholds).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.tree_builder import MAX_BINS, BinMapper, _NodeArrays, grow_tree_hist
from repro.utils.rng import RandomState, as_generator

MaxFeatures = Union[None, int, float, str]


class DecisionTreeRegressor:
    """Binary regression tree with variance-reduction (MSE) splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` for unbounded).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child.
    max_features:
        Number of features examined per split: an int, a fraction of the total,
        ``"sqrt"``, ``"log2"`` or ``None`` (all features).  Random feature
        subsets are what make the forest's trees "randomized decision trees" as
        described in the paper.
    min_impurity_decrease:
        Minimum per-sample variance decrease (normalized by the node size)
        required to accept a split.
    splitter:
        ``"hist"`` (default) for the histogram-binned engine, ``"exact"`` for
        the per-node sort-based reference splitter.
    max_bins:
        Bin budget per feature for the histogram splitter (ignored by
        ``"exact"``).
    random_state:
        Seed controlling feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: MaxFeatures = None,
        min_impurity_decrease: float = 0.0,
        splitter: str = "hist",
        max_bins: int = MAX_BINS,
        random_state: RandomState = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be non-negative")
        if splitter not in ("hist", "exact"):
            raise ValueError(f"splitter must be 'hist' or 'exact', got {splitter!r}")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.min_impurity_decrease = float(min_impurity_decrease)
        self.splitter = splitter
        self.max_bins = int(max_bins)
        self.random_state = random_state
        self._nodes: Optional[_NodeArrays] = None
        self._n_features: Optional[int] = None
        self._depth = 0

    # -- public API -----------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "DecisionTreeRegressor":
        """Fit the tree on features ``X`` (``(n, d)``) and targets ``y`` (``(n,)``).

        ``sample_weight`` (histogram splitter only) weights each row; integer
        weights are equivalent to materializing that many row copies.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("X and y must be finite")
        if self.splitter == "hist":
            mapper = BinMapper(max_bins=self.max_bins).fit(X)
            return self.fit_binned(
                mapper.transform(X), y, mapper.bin_thresholds_, sample_weight=sample_weight
            )
        if sample_weight is not None:
            raise ValueError("sample_weight requires splitter='hist'")
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

    def fit_binned(
        self,
        binned: np.ndarray,
        y: np.ndarray,
        bin_thresholds: Sequence[np.ndarray],
        sample_weight: Optional[np.ndarray] = None,
    ) -> "DecisionTreeRegressor":
        """Fit from a pre-binned ``uint8`` matrix (histogram splitter only).

        This is the forest's fast path: all trees of a forest (and all refits
        across an active-learning run) share one binned matrix produced by a
        single :class:`~repro.core.tree_builder.BinMapper`, and bootstrap
        resamples arrive as integer ``sample_weight`` vectors.
        """
        if self.splitter != "hist":
            raise ValueError("fit_binned requires splitter='hist'")
        binned = np.asarray(binned)
        if binned.ndim != 2:
            raise ValueError(f"binned must be 2-D, got shape {binned.shape}")
        self._n_features = binned.shape[1]
        self._nodes = grow_tree_hist(
            binned,
            bin_thresholds,
            y,
            sample_weight,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            n_feat_per_split=self._resolve_max_features(binned.shape[1]),
            rng=as_generator(self.random_state),
        )
        self._depth = self._compute_depth(self._nodes)
        return self

    def adopt_nodes(self, nodes: _NodeArrays, n_features: int) -> "DecisionTreeRegressor":
        """Adopt externally grown node arrays as this tree's fitted state.

        This is how :func:`~repro.core.tree_builder.grow_forest_hist` (which
        grows all of a forest's trees in one pass) hands finished node tables
        back to the per-tree wrapper objects.
        """
        self._n_features = int(n_features)
        self._nodes = nodes
        self._depth = self._compute_depth(nodes)
        return self

    @staticmethod
    def _compute_depth(nodes: _NodeArrays) -> int:
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            internal = frontier[nodes.feature[frontier] >= 0]
            if internal.size == 0:
                return depth
            frontier = np.concatenate([nodes.left[internal], nodes.right[internal]])
            depth += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X`` (``(n, d)`` → ``(n,)``)."""
        nodes = self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self._n_features:
            raise ValueError(f"expected {self._n_features} features, got {X.shape[1]}")
        return nodes.value[self._apply_nodes(nodes, X)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf node index each sample of ``X`` falls into."""
        nodes = self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return self._apply_nodes(nodes, X)

    @staticmethod
    def _apply_nodes(nodes: _NodeArrays, X: np.ndarray) -> np.ndarray:
        """Leaf index per sample via a level-synchronous descent.

        Only samples still resting on internal nodes stay in the active set,
        so each level's gathers shrink as samples settle into leaves.
        """
        node_idx = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(nodes.feature[node_idx] >= 0)
        while active.size:
            cur = node_idx[active]
            go_left = X[active, nodes.feature[cur]] <= nodes.threshold[cur]
            nxt = np.where(go_left, nodes.left[cur], nodes.right[cur])
            node_idx[active] = nxt
            active = active[nodes.feature[nxt] >= 0]
        return node_idx

    @property
    def node_arrays(self) -> _NodeArrays:
        """Flat node-array representation of the fitted tree."""
        return self._require_fitted()

    @property
    def n_nodes(self) -> int:
        """Total number of nodes in the fitted tree."""
        return int(self._require_fitted().feature.size)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes in the fitted tree."""
        return int(np.sum(self._require_fitted().feature < 0))

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (a root-only tree has depth 0)."""
        self._require_fitted()
        return self._depth

    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease feature importances (sums to 1 unless all zero)."""
        nodes = self._require_fitted()
        assert self._n_features is not None
        importances = np.zeros(self._n_features, dtype=np.float64)
        total = nodes.n_samples[0]
        internal = np.flatnonzero(nodes.feature >= 0)
        if internal.size:
            l_id = nodes.left[internal]
            r_id = nodes.right[internal]
            decrease = (
                nodes.n_samples[internal] * nodes.impurity[internal]
                - nodes.n_samples[l_id] * nodes.impurity[l_id]
                - nodes.n_samples[r_id] * nodes.impurity[r_id]
            )
            # Several internal nodes can split on the same feature.
            np.add.at(importances, nodes.feature[internal], decrease / total)
        s = importances.sum()
        if s > 0:
            importances /= s
        return importances

    # -- internals ---------------------------------------------------------------
    def _require_fitted(self) -> _NodeArrays:
        if self._nodes is None:
            raise RuntimeError("this DecisionTreeRegressor is not fitted yet")
        return self._nodes

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None or mf == "all":
            return n_features
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(math.sqrt(n_features)))
            if mf == "log2":
                return max(1, int(math.log2(n_features))) if n_features > 1 else 1
            raise ValueError(f"unknown max_features string {mf!r}")
        if isinstance(mf, float) and not isinstance(mf, bool):
            if not (0.0 < mf <= 1.0):
                raise ValueError("fractional max_features must be in (0, 1]")
            return max(1, int(round(mf * n_features)))
        if isinstance(mf, int):
            if mf < 1:
                raise ValueError("integer max_features must be >= 1")
            return min(mf, n_features)
        raise ValueError(f"invalid max_features: {mf!r}")

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


__all__ = ["DecisionTreeRegressor", "_NodeArrays"]
