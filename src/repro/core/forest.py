"""Bootstrap-aggregated randomized decision forest regressor.

The paper bootstraps "two separate randomized decision forests" — one
predicting absolute trajectory error and one predicting per-frame runtime —
from a small number of randomly drawn configurations, then refines them with
active learning.  This module provides the forest; the per-objective pairing
lives in :mod:`repro.core.surrogate`.

After :meth:`RandomForestRegressor.fit` the per-tree node arrays are
concatenated into a single :class:`~repro.core.flat_forest.FlatForest` node
table; all batch prediction (``predict`` / ``predict_with_std`` /
``predict_all_trees`` / ``oob_error``) traverses that table in one vectorized
pass instead of looping over trees in Python.

Fitting has one path.  The feature matrix is quantized once by a shared
:class:`~repro.core.tree_builder.BinMapper` (callers owning a static pool
can pass their own mapper and pre-binned rows so nothing is re-quantized
across refits), and bootstrap resamples are per-row integer weight vectors
over that single binned matrix instead of materialized row copies —
out-of-bag rows are simply the rows whose weight is zero.  All trees then
grow together through :func:`~repro.core.tree_builder.grow_forest_hist`, in
consecutive slices of trees when one call would exceed
:data:`FOREST_SCRATCH_BUDGET_BYTES`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.flat_forest import FlatForest, PoolIndex
from repro.core.tree import DecisionTreeRegressor, MaxFeatures
from repro.core.tree_builder import BinMapper, grow_forest_hist
from repro.utils.rng import RandomState, spawn_generators

#: Worst-case per-level histogram scratch (bytes) of one grower call.  A
#: call's level scratch is 3 statistics x 8 bytes x (frontier slots <=
#: trees * rows) x features x max observed bins, so ``fit`` grows the forest
#: in consecutive slices of as many trees as fit this budget (at least one).
#: Design-space refits sit orders of magnitude below it and grow in one
#: slice.  Each tree owns its generator and weight vector, so slicing never
#: changes a tree.
FOREST_SCRATCH_BUDGET_BYTES = 512 << 20


class RandomForestRegressor:
    """Random forest for regression (bagging + per-split feature subsampling).

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features,
    min_impurity_decrease:
        Passed to each :class:`~repro.core.tree.DecisionTreeRegressor`.
    bootstrap:
        Whether each tree trains on a bootstrap resample of the data.
    random_state:
        Seed for bootstrap draws and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 32,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: MaxFeatures = 0.75,
        min_impurity_decrease: float = 0.0,
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bool(bootstrap)
        self.random_state = random_state
        self._trees: List[DecisionTreeRegressor] = []
        self._oob_indices: List[np.ndarray] = []
        self._flat: Optional[FlatForest] = None
        self._X_train: Optional[np.ndarray] = None
        self._y_train: Optional[np.ndarray] = None
        self._n_features: Optional[int] = None
        self._bin_mapper: Optional[BinMapper] = None

    # -- fitting ---------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        bin_mapper: Optional[BinMapper] = None,
        prebinned: Optional[np.ndarray] = None,
    ) -> "RandomForestRegressor":
        """Fit the forest on features ``X`` and targets ``y``.

        ``bin_mapper`` supplies a pre-fitted
        :class:`~repro.core.tree_builder.BinMapper` — typically the one cached
        on the active-learning run's encoded pool — and ``prebinned`` the
        matching bin-index rows for ``X``, so repeated refits across
        iterations never re-derive bins or re-quantize anything.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have inconsistent lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a forest on an empty dataset")
        if prebinned is not None and bin_mapper is None:
            raise ValueError("prebinned rows require the bin_mapper that produced them")
        n, d = X.shape
        mapper = bin_mapper if bin_mapper is not None else BinMapper().fit(X)
        binned = prebinned if prebinned is not None else mapper.transform(X)
        binned = np.ascontiguousarray(binned, dtype=np.uint8)
        if binned.shape != X.shape:
            raise ValueError("prebinned must have the same shape as X")
        self._n_features = d
        self._X_train = X
        self._y_train = y
        self._bin_mapper = mapper
        rngs = spawn_generators(self.random_state, self.n_estimators)

        # Draw every bootstrap resample up front: each is an integer per-row
        # weight vector over the one shared binned matrix, and out-of-bag
        # rows are weight == 0.
        weight_vectors: List[Optional[np.ndarray]] = []
        oob_indices: List[np.ndarray] = []
        for rng in rngs:
            if self.bootstrap and n > 1:
                weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
                oob = np.flatnonzero(weights == 0)
            else:
                weights = None
                oob = np.empty(0, dtype=np.int64)
            weight_vectors.append(weights)
            oob_indices.append(oob)

        trees = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                min_impurity_decrease=self.min_impurity_decrease,
                random_state=rng,
            )
            for rng in rngs
        ]
        n_feat_per_split = trees[0]._resolve_max_features(d)
        step = self._trees_per_slice(n, d, mapper)
        for start in range(0, self.n_estimators, step):
            stop = start + step
            node_arrays = grow_forest_hist(
                binned,
                mapper.bin_thresholds_,
                y,
                weight_vectors[start:stop],
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                min_impurity_decrease=self.min_impurity_decrease,
                n_feat_per_split=n_feat_per_split,
                rngs=rngs[start:stop],
            )
            for tree, nodes in zip(trees[start:stop], node_arrays):
                tree.adopt_nodes(nodes, d)

        self._trees = trees
        self._oob_indices = oob_indices
        self._flat = FlatForest.from_trees(trees)
        return self

    def _trees_per_slice(self, n: int, d: int, mapper: BinMapper) -> int:
        """Most trees one grower call may hold within the scratch budget (>= 1)."""
        assert mapper.n_bins_ is not None
        per_tree = 3 * 8 * n * d * int(mapper.n_bins_.max())
        return max(1, FOREST_SCRATCH_BUDGET_BYTES // per_tree)

    # -- prediction -----------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction over all trees."""
        return self.flat.predict(X)

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mean and across-tree standard deviation of the prediction.

        The dispersion across trees is a cheap epistemic-uncertainty proxy used
        by the uncertainty-weighted active-learning variant (an extension over
        the paper's plain Pareto-proximity sampling).
        """
        return self.flat.predict_with_std(X)

    def predict_all_trees(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions as an ``(n_estimators, n_samples)`` matrix."""
        return self.flat.predict_all(X)

    def predict_indexed(self, index: "PoolIndex") -> np.ndarray:
        """Mean prediction over a pre-indexed static pool (bitset kernel)."""
        return self.flat.predict_indexed(index)

    def predict_with_std_indexed(self, index: "PoolIndex") -> Tuple[np.ndarray, np.ndarray]:
        """Mean/std prediction over a pre-indexed static pool (bitset kernel)."""
        return self.flat.predict_with_std_indexed(index)

    # -- quality metrics ---------------------------------------------------------
    def oob_error(self) -> float:
        """Out-of-bag mean squared error (``nan`` when bootstrap is disabled)."""
        self._require_fitted()
        if not self.bootstrap or self._X_train is None or self._y_train is None:
            return float("nan")
        n = self._X_train.shape[0]
        # One flat traversal of the whole training set replaces per-tree
        # predictions on each tree's out-of-bag subset.
        preds = self.flat.predict_all(self._X_train)
        sums = np.zeros(n, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        for t, oob in enumerate(self._oob_indices):
            if oob.size == 0:
                continue
            sums[oob] += preds[t, oob]
            counts[oob] += 1
        covered = counts > 0
        if not np.any(covered):
            return float("nan")
        oob_pred = sums[covered] / counts[covered]
        return float(np.mean((oob_pred - self._y_train[covered]) ** 2))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 on ``(X, y)``."""
        y = np.asarray(y, dtype=np.float64).ravel()
        pred = self.predict(X)
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot

    def feature_importances(self) -> np.ndarray:
        """Mean impurity-decrease importances across trees."""
        self._require_fitted()
        importances = np.mean([t.feature_importances() for t in self._trees], axis=0)
        s = importances.sum()
        if s > 0:
            importances = importances / s
        return importances

    @property
    def trees(self) -> List[DecisionTreeRegressor]:
        """Fitted trees (read-only view)."""
        self._require_fitted()
        return list(self._trees)

    @property
    def flat(self) -> FlatForest:
        """The flattened node table used for batched inference."""
        self._require_fitted()
        assert self._flat is not None
        return self._flat

    @property
    def bin_mapper(self) -> BinMapper:
        """The bin mapper the trees were grown on."""
        self._require_fitted()
        assert self._bin_mapper is not None
        return self._bin_mapper

    @property
    def n_features(self) -> int:
        """Number of input features seen during :meth:`fit`."""
        self._require_fitted()
        assert self._n_features is not None
        return self._n_features

    # -- internals -----------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self._trees:
            raise RuntimeError("this RandomForestRegressor is not fitted yet")


__all__ = ["RandomForestRegressor"]
