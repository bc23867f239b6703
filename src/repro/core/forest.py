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

Fitting runs on the histogram engine by default (``splitter="hist"``): the
feature matrix is quantized once by a shared
:class:`~repro.core.tree_builder.BinMapper` (callers owning a static pool can
pass their own mapper and pre-binned rows so nothing is re-quantized across
refits), and bootstrap resamples are per-row integer weight vectors over that
single binned matrix instead of materialized row copies — out-of-bag rows are
simply the rows whose weight is zero.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core.flat_forest import FlatForest, PoolIndex
from repro.core.tree import DecisionTreeRegressor, MaxFeatures
from repro.core.tree_builder import MAX_BINS, BinMapper, grow_forest_hist
from repro.utils.rng import RandomState, spawn_generators

#: Worst-case per-level histogram scratch (bytes) above which the histogram
#: path falls back from the single-pass forest grower to per-tree growth.
#: The forest grower's level scratch is 3 statistics x 8 bytes x (frontier
#: slots <= n_trees * n_rows) x n_features x max observed bins; design-space
#: refits (hundreds of rows, tiny bin alphabets) sit orders of magnitude
#: below this, huge exports stay on the threaded per-tree path.  Both paths
#: produce bit-identical trees.
FOREST_SCRATCH_BUDGET_BYTES = 512 << 20


def _resolve_n_jobs(n_jobs: Optional[int], n_tasks: int) -> int:
    import os

    if n_jobs is None:
        return 1
    if n_jobs < 0:
        return max(1, min(os.cpu_count() or 1, n_tasks))
    return max(1, min(int(n_jobs), n_tasks))


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
    splitter:
        Split engine passed to every tree: ``"hist"`` (default, binned
        weight-vector fitting) or ``"exact"`` (reference sort-based search
        on materialized resamples).
    max_bins:
        Per-feature bin budget for the histogram engine.
    n_jobs:
        Trees fitted concurrently (``None``/1 serial, ``-1`` one worker per
        core).  Threads suffice: split search is NumPy-heavy and releases the
        GIL.  Results are identical for any ``n_jobs`` because every tree owns
        an independent, pre-spawned generator.
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
        splitter: str = "hist",
        max_bins: int = MAX_BINS,
        n_jobs: Optional[int] = None,
        random_state: RandomState = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if splitter not in ("hist", "exact"):
            raise ValueError(f"splitter must be 'hist' or 'exact', got {splitter!r}")
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bool(bootstrap)
        self.splitter = splitter
        self.max_bins = int(max_bins)
        self.n_jobs = n_jobs
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

        ``bin_mapper`` (histogram splitter only) supplies a pre-fitted
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
        n = X.shape[0]
        self._n_features = X.shape[1]
        self._X_train = X
        self._y_train = y
        rngs = spawn_generators(self.random_state, self.n_estimators)
        all_idx = np.arange(n)

        hist = self.splitter == "hist"
        if hist:
            mapper = bin_mapper if bin_mapper is not None else BinMapper(self.max_bins).fit(X)
            binned = prebinned if prebinned is not None else mapper.transform(X)
            binned = np.ascontiguousarray(binned, dtype=np.uint8)
            if binned.shape != X.shape:
                raise ValueError("prebinned must have the same shape as X")
            self._bin_mapper = mapper
        else:
            self._bin_mapper = None

        # Draw every bootstrap resample up front (cheap, and keeps the draw
        # order independent of the fitting schedule).  The histogram engine
        # represents each resample as an integer per-row weight vector over
        # the one shared binned matrix; out-of-bag rows are weight == 0.
        sample_indices: List[np.ndarray] = []
        weight_vectors: List[Optional[np.ndarray]] = []
        oob_indices: List[np.ndarray] = []
        for rng in rngs:
            if self.bootstrap and n > 1:
                sample_idx = rng.integers(0, n, size=n)
                weights = np.bincount(sample_idx, minlength=n)
                oob = np.flatnonzero(weights == 0)
            else:
                sample_idx = all_idx
                weights = None
                oob = np.empty(0, dtype=np.int64)
            sample_indices.append(sample_idx)
            weight_vectors.append(weights)
            oob_indices.append(oob)

        trees = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                min_impurity_decrease=self.min_impurity_decrease,
                splitter=self.splitter,
                max_bins=self.max_bins,
                random_state=rngs[t],
            )
            for t in range(self.n_estimators)
        ]

        if hist and self._forest_grow_fits(n, X.shape[1], mapper):
            # Single-pass path: one frontier over (tree, node) pairs, one
            # histogram scan per level for the whole forest.  Bit-identical
            # to the per-tree path below (equivalence-tested).
            node_arrays = grow_forest_hist(
                binned,
                mapper.bin_thresholds_,
                y,
                weight_vectors,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                min_impurity_decrease=self.min_impurity_decrease,
                n_feat_per_split=trees[0]._resolve_max_features(X.shape[1]),
                rngs=rngs,
            )
            for tree, na in zip(trees, node_arrays):
                tree.adopt_nodes(na, X.shape[1])
        else:

            def fit_one(t: int) -> DecisionTreeRegressor:
                tree = trees[t]
                if hist:
                    return tree.fit_binned(
                        binned, y, mapper.bin_thresholds_, sample_weight=weight_vectors[t]
                    )
                return tree.fit(X[sample_indices[t]], y[sample_indices[t]])

            workers = _resolve_n_jobs(self.n_jobs, self.n_estimators)
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    trees = list(pool.map(fit_one, range(self.n_estimators)))
            else:
                trees = [fit_one(t) for t in range(self.n_estimators)]

        self._trees = trees
        self._oob_indices = oob_indices
        self._flat = FlatForest.from_trees(trees)
        return self

    def _forest_grow_fits(self, n: int, d: int, mapper: BinMapper) -> bool:
        """Whether the single-pass forest grower's scratch fits the budget."""
        assert mapper.n_bins_ is not None
        B = int(mapper.n_bins_.max())
        worst = 3 * 8 * self.n_estimators * n * d * B
        return worst <= FOREST_SCRATCH_BUDGET_BYTES

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
    def bin_mapper(self) -> Optional[BinMapper]:
        """The bin mapper used by the histogram engine (``None`` for exact)."""
        self._require_fitted()
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
