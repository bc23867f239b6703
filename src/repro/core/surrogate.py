"""Multi-objective surrogate model: one random forest per objective.

"HyperMapper trains separate regressors to learn the mapping from our input
(parameter) space to each output variable, i.e. the two performance metrics."
This module bundles those per-objective forests behind a single fit/predict
interface operating directly on configurations (encoding is delegated to the
design space).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.flat_forest import PoolIndex
from repro.core.forest import RandomForestRegressor
from repro.core.tree_builder import BinMapper
from repro.core.objectives import ObjectiveSet
from repro.core.pareto import pareto_mask
from repro.core.space import Configuration, DesignSpace
from repro.utils.rng import RandomState, derive_seed


class MultiObjectiveSurrogate:
    """Per-objective random-forest surrogate over a design space.

    Parameters
    ----------
    space:
        Design space used to encode configurations into features.
    objectives:
        Objectives to model; one forest is trained per objective.
    n_estimators, max_depth, min_samples_leaf, max_features, bootstrap:
        Forest hyper-parameters shared by every per-objective forest.
    log_objectives:
        Optional list of objective names modelled in log-space.  Runtime spans
        orders of magnitude across the KFusion space (Fig. 1 uses a log axis
        for the ICP threshold and the response surface), so fitting
        ``log(runtime)`` stabilizes the forest's variance-based splits.
    random_state:
        Base seed; each objective's forest derives its own stream.
    """

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        n_estimators: int = 32,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 2,
        max_features=0.75,
        bootstrap: bool = True,
        log_objectives: Sequence[str] = (),
        random_state: RandomState = None,
    ) -> None:
        self.space = space
        self.objectives = objectives
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.log_objectives = set(log_objectives)
        unknown = self.log_objectives - set(objectives.names)
        if unknown:
            raise ValueError(f"log_objectives refers to unknown objectives: {sorted(unknown)}")
        self.random_state = random_state
        self._forests: Dict[str, RandomForestRegressor] = {}

    # -- fitting ------------------------------------------------------------
    def fit(self, configs: Sequence[Configuration], metrics: Sequence[Mapping[str, float]]) -> "MultiObjectiveSurrogate":
        """Fit one forest per objective on evaluated (config, metrics) pairs."""
        if len(configs) != len(metrics):
            raise ValueError("configs and metrics must have the same length")
        if len(configs) == 0:
            raise ValueError("cannot fit a surrogate on zero samples")
        return self.fit_encoded(self.space.encode(configs), metrics)

    def fit_encoded(
        self,
        X: np.ndarray,
        metrics: Sequence[Mapping[str, float]],
        *,
        bin_mapper: Optional[BinMapper] = None,
        prebinned: Optional[np.ndarray] = None,
    ) -> "MultiObjectiveSurrogate":
        """Fit from an already-encoded ``(n, n_features)`` feature matrix.

        The active-learning loop keeps one encoded copy of the configuration
        pool and fits from row views of it, so configurations are never
        re-encoded across iterations.  ``bin_mapper``/``prebinned``
        additionally share the pool's cached quantization across every
        forest of every refit, so nothing is re-binned either.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != len(metrics):
            raise ValueError("X must be (n, n_features) with one row per metric dict")
        if len(metrics) == 0:
            raise ValueError("cannot fit a surrogate on zero samples")
        if bin_mapper is None and prebinned is None:
            # Derive the quantization once here rather than once per forest.
            bin_mapper = BinMapper().fit(X)
            prebinned = bin_mapper.transform(X)
        self._forests = {}
        for obj in self.objectives:
            y = np.array([float(m[obj.name]) for m in metrics], dtype=np.float64)
            y_fit = self._transform(obj.name, y)
            forest = RandomForestRegressor(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                bootstrap=self.bootstrap,
                random_state=derive_seed(self.random_state, obj.name),
            )
            forest.fit(X, y_fit, bin_mapper=bin_mapper, prebinned=prebinned)
            self._forests[obj.name] = forest
        return self

    # -- prediction ------------------------------------------------------------
    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predict the ``(n, m)`` objective matrix (natural units)."""
        mean, _ = self.predict_with_std(configs)
        return mean

    def predict_with_std(self, configs: Sequence[Configuration]) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted mean and across-tree std for every objective."""
        self._require_fitted()
        return self.predict_with_std_encoded(self.space.encode(configs))

    def predict_encoded(self, X: np.ndarray, pool_index: Optional[PoolIndex] = None) -> np.ndarray:
        """Predict the objective matrix from pre-encoded features.

        When ``pool_index`` (the bitset index of a static pool whose encoding
        is ``X``) is provided, prediction runs on the bitset kernel instead of
        per-sample tree traversal — numerically identical, much faster.
        Mean-only: the across-tree std reduction is skipped entirely (the
        ``Predict_Pareto`` step of Algorithm 1 never needs it).
        """
        self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        n = pool_index.n_samples if pool_index is not None else X.shape[0]
        mean = np.empty((n, len(self.objectives)), dtype=np.float64)
        for j, obj in enumerate(self.objectives):
            forest = self._forests[obj.name]
            m = forest.predict_indexed(pool_index) if pool_index is not None else forest.predict(X)
            mean[:, j] = self._inverse_transform(obj.name, m)
        return mean

    def predict_with_std_encoded(
        self, X: np.ndarray, pool_index: Optional[PoolIndex] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean/std prediction from an already-encoded feature matrix."""
        self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        mean = np.empty((n, len(self.objectives)), dtype=np.float64)
        std = np.empty((n, len(self.objectives)), dtype=np.float64)
        for j, obj in enumerate(self.objectives):
            forest = self._forests[obj.name]
            if pool_index is not None:
                m, s = forest.predict_with_std_indexed(pool_index)
            else:
                m, s = forest.predict_with_std(X)
            mean[:, j] = self._inverse_transform(obj.name, m)
            # Propagate std through exp approximately for log-modelled objectives.
            if obj.name in self.log_objectives:
                std[:, j] = mean[:, j] * s
            else:
                std[:, j] = s
        return mean, std

    def predicted_pareto(
        self,
        pool: Sequence[Configuration],
        feasible_only: bool = True,
    ) -> Tuple[List[Configuration], np.ndarray]:
        """Predicted-Pareto configurations of ``pool`` and their predicted objectives.

        This is the ``Predict_Pareto`` step of Algorithm 1: predict both
        objectives over the entire pool and return the non-dominated subset.
        When ``feasible_only`` is set and at least one pool point is predicted
        feasible, infeasible predictions are dropped first (the paper's 5 cm
        accuracy limit).
        """
        if len(pool) == 0:
            return [], np.empty((0, len(self.objectives)))
        idx, pred = self.predicted_pareto_encoded(self.space.encode(pool), feasible_only=feasible_only)
        return [pool[int(i)] for i in idx], pred

    def predicted_pareto_encoded(
        self,
        X: np.ndarray,
        feasible_only: bool = True,
        pool_index: Optional[PoolIndex] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predicted-Pareto row indices of a pre-encoded pool and their objectives.

        Same semantics as :meth:`predicted_pareto` but operating on a cached
        encoded pool matrix; returns ``(indices, predicted_values)`` where
        ``indices`` selects the non-dominated rows of ``X``.  Passing the
        pool's bitset ``pool_index`` routes prediction through the bitset
        kernel.
        """
        self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty((0, len(self.objectives)))
        pred = self.predict_encoded(X, pool_index=pool_index)
        candidates = np.arange(X.shape[0])
        if feasible_only:
            feas = self.objectives.feasibility_mask(pred)
            if np.any(feas):
                candidates = np.flatnonzero(feas)
        canonical = self.objectives.to_canonical(pred[candidates])
        mask = pareto_mask(canonical)
        idx = candidates[np.flatnonzero(mask)]
        return idx, pred[idx]

    # -- diagnostics ------------------------------------------------------------
    def oob_errors(self) -> Dict[str, float]:
        """Per-objective out-of-bag MSE of the underlying forests."""
        self._require_fitted()
        return {name: forest.oob_error() for name, forest in self._forests.items()}

    def feature_importances(self) -> Dict[str, Dict[str, float]]:
        """Per-objective feature importances keyed by encoded feature name.

        Mirrors the correlation analysis of the feature space with runtime and
        error referenced in the paper (Section IV-C).
        """
        self._require_fitted()
        names = self.space.feature_names
        out: Dict[str, Dict[str, float]] = {}
        for obj_name, forest in self._forests.items():
            imps = forest.feature_importances()
            out[obj_name] = {names[i]: float(imps[i]) for i in range(len(names))}
        return out

    def forest(self, objective_name: str) -> RandomForestRegressor:
        """The fitted forest for one objective."""
        self._require_fitted()
        return self._forests[objective_name]

    # -- internals ------------------------------------------------------------
    def _transform(self, objective_name: str, y: np.ndarray) -> np.ndarray:
        if objective_name in self.log_objectives:
            if np.any(y <= 0):
                raise ValueError(f"objective {objective_name!r} has non-positive values; cannot model in log-space")
            return np.log(y)
        return y

    def _inverse_transform(self, objective_name: str, y: np.ndarray) -> np.ndarray:
        if objective_name in self.log_objectives:
            return np.exp(y)
        return y

    def _require_fitted(self) -> None:
        if not self._forests:
            raise RuntimeError("this MultiObjectiveSurrogate is not fitted yet")


__all__ = ["MultiObjectiveSurrogate"]
