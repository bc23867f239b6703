"""CART regression tree built from scratch on NumPy.

HyperMapper fits one randomized decision forest per objective; the forest in
:mod:`repro.core.forest` bags these trees.  Trees grow on the histogram
engine of :mod:`repro.core.tree_builder`: features are quantized into at
most 255 ``uint8`` bins, and
:func:`~repro.core.tree_builder.grow_forest_hist` grows the tree
breadth-first with cumulative bin-statistic split scans.
:meth:`DecisionTreeRegressor.fit` grows one tree as a forest of one; the
forest grows its trees together through the same function and hands each
tree its node table through :meth:`DecisionTreeRegressor.adopt_nodes`.

Prediction walks all samples level-by-level with array gathers over the
flat node arrays, whose thresholds are ordinary floats.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.core.tree_builder import BinMapper, _NodeArrays, grow_forest_hist
from repro.utils.rng import RandomState

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
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.min_impurity_decrease = float(min_impurity_decrease)
        self.random_state = random_state
        self._nodes: Optional[_NodeArrays] = None
        self._n_features: Optional[int] = None
        # Computed on the first read of :attr:`depth`: forests adopt many
        # trees whose depth nobody asks for.
        self._depth: Optional[int] = None

    # -- public API -----------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit the tree on features ``X`` (``(n, d)``) and targets ``y`` (``(n,)``).

        ``X`` is quantized by its own :class:`~repro.core.tree_builder.BinMapper`
        and the tree grows through
        :func:`~repro.core.tree_builder.grow_forest_hist` as a forest of one.
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
        mapper = BinMapper().fit(X)
        (nodes,) = grow_forest_hist(
            mapper.transform(X),
            mapper.bin_thresholds_,
            y,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            n_feat_per_split=self._resolve_max_features(X.shape[1]),
            rngs=[self.random_state],
        )
        return self.adopt_nodes(nodes, X.shape[1])

    def adopt_nodes(self, nodes: _NodeArrays, n_features: int) -> "DecisionTreeRegressor":
        """Adopt grown node arrays as this tree's fitted state.

        :meth:`fit` and the forest (which grows its trees together through
        :func:`~repro.core.tree_builder.grow_forest_hist`) hand finished node
        tables to the per-tree wrapper objects this way.
        """
        self._n_features = int(n_features)
        self._nodes = nodes
        self._depth = None
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
        nodes = self._require_fitted()
        if self._depth is None:
            self._depth = self._compute_depth(nodes)
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


__all__ = ["DecisionTreeRegressor", "_NodeArrays"]
