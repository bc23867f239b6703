"""Tests for the from-scratch regression tree and random forest."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.forest import RandomForestRegressor
from repro.core.tree import DecisionTreeRegressor


def _toy_regression(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = np.where(X[:, 0] > 0, 3.0, -1.0) + 0.5 * X[:, 1] ** 2 + noise * rng.normal(size=n)
    return X, y


class TestDecisionTree:
    def test_perfectly_fits_step_function(self):
        X, y = _toy_regression(noise=0.0)
        tree = DecisionTreeRegressor(random_state=0)
        tree.fit(X, y)
        pred = tree.predict(X)
        assert np.mean((pred - y) ** 2) < 1e-3

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.full(30, 7.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves == 1
        assert np.allclose(tree.predict(X), 7.0)

    def test_max_depth_limits_depth(self):
        X, y = _toy_regression()
        tree = DecisionTreeRegressor(max_depth=2, random_state=0).fit(X, y)
        assert tree.depth <= 2
        assert tree.n_leaves <= 4

    def test_min_samples_leaf_respected(self):
        X, y = _toy_regression(n=100)
        tree = DecisionTreeRegressor(min_samples_leaf=20, random_state=0).fit(X, y)
        nodes = tree._require_fitted()
        leaf_sizes = nodes.n_samples[nodes.feature < 0]
        assert np.all(leaf_sizes >= 20)

    def test_prediction_is_mean_of_leaf(self):
        X = np.array([[0.0], [0.0], [10.0], [10.0]])
        y = np.array([1.0, 3.0, 10.0, 14.0])
        tree = DecisionTreeRegressor(random_state=0, min_samples_leaf=2).fit(X, y)
        assert tree.predict(np.array([[0.0]]))[0] == pytest.approx(2.0)
        assert tree.predict(np.array([[10.0]]))[0] == pytest.approx(12.0)

    def test_apply_returns_leaves(self):
        X, y = _toy_regression(n=50)
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        leaves = tree.apply(X)
        nodes = tree._require_fitted()
        assert np.all(nodes.feature[leaves] == -1)

    def test_feature_importances_sum_to_one(self):
        X, y = _toy_regression()
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        imp = tree.feature_importances()
        assert imp.shape == (3,)
        assert imp.sum() == pytest.approx(1.0)
        # Feature 0 drives the step function and should dominate.
        assert imp[0] > imp[2]

    def test_input_validation(self):
        tree = DecisionTreeRegressor()
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3,)), np.zeros(3))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            tree.fit(np.array([[np.nan, 1.0]]), np.array([1.0]))
        with pytest.raises(RuntimeError):
            tree.predict(np.zeros((1, 2)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_predictions_within_target_range(self, seed):
        """Tree predictions are convex combinations of training targets."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 2))
        y = rng.uniform(-5, 5, size=40)
        tree = DecisionTreeRegressor(random_state=seed).fit(X, y)
        pred = tree.predict(rng.normal(size=(20, 2)))
        assert np.all(pred >= y.min() - 1e-9) and np.all(pred <= y.max() + 1e-9)


class TestRandomForest:
    def test_fits_noisy_function_better_than_mean(self):
        X, y = _toy_regression(n=300, noise=0.3, seed=1)
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert forest.score(X, y) > 0.8

    def test_deterministic_given_seed(self):
        X, y = _toy_regression(n=100, noise=0.2)
        p1 = RandomForestRegressor(n_estimators=8, random_state=42).fit(X, y).predict(X)
        p2 = RandomForestRegressor(n_estimators=8, random_state=42).fit(X, y).predict(X)
        assert np.allclose(p1, p2)

    def test_different_seeds_differ(self):
        X, y = _toy_regression(n=100, noise=0.2)
        p1 = RandomForestRegressor(n_estimators=4, random_state=1).fit(X, y).predict(X)
        p2 = RandomForestRegressor(n_estimators=4, random_state=2).fit(X, y).predict(X)
        assert not np.allclose(p1, p2)

    def test_predict_with_std_shapes(self):
        X, y = _toy_regression(n=80)
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        mean, std = forest.predict_with_std(X[:7])
        assert mean.shape == (7,) and std.shape == (7,)
        assert np.all(std >= 0)

    def test_oob_error_positive_with_noise(self):
        X, y = _toy_regression(n=150, noise=0.5)
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        oob = forest.oob_error()
        assert np.isfinite(oob) and oob > 0

    def test_oob_nan_without_bootstrap(self):
        X, y = _toy_regression(n=60)
        forest = RandomForestRegressor(n_estimators=5, bootstrap=False, random_state=0).fit(X, y)
        assert np.isnan(forest.oob_error())

    def test_feature_importances(self):
        X, y = _toy_regression(n=200)
        forest = RandomForestRegressor(n_estimators=16, random_state=3).fit(X, y)
        imp = forest.feature_importances()
        assert imp.shape == (3,)
        assert imp.sum() == pytest.approx(1.0)
        assert np.argmax(imp) in (0, 1)

    def test_single_sample_fit(self):
        forest = RandomForestRegressor(n_estimators=3, random_state=0)
        forest.fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        assert forest.predict(np.array([[9.0, 9.0]]))[0] == pytest.approx(5.0)

    def test_requires_fit_before_predict(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_forest_predictions_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 2))
        y = rng.uniform(0, 10, size=30)
        forest = RandomForestRegressor(n_estimators=5, random_state=seed).fit(X, y)
        pred = forest.predict(rng.normal(size=(10, 2)))
        assert np.all(pred >= y.min() - 1e-9) and np.all(pred <= y.max() + 1e-9)


class TestRefit:
    """Every ``fit`` regrows the whole forest: a refitted forest keeps nothing
    of its previous fit and equals a fresh forest grown on the same data."""

    _FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")

    @pytest.mark.parametrize("change", ["append", "shrink", "replace"])
    def test_refit_equals_fresh_fit(self, change):
        X, y = _toy_regression(n=150, seed=1, noise=0.3)
        if change == "append":
            Xn, yn = _toy_regression(n=12, seed=2, noise=0.3)
            X2, y2 = np.vstack([X, Xn]), np.concatenate([y, yn])
        elif change == "shrink":
            X2, y2 = X[:60], y[:60]
        else:
            X2, y2 = _toy_regression(n=150, seed=3, noise=0.3)
        refitted = RandomForestRegressor(n_estimators=6, random_state=4).fit(X, y).fit(X2, y2)
        fresh = RandomForestRegressor(n_estimators=6, random_state=4).fit(X2, y2)
        for tr, tf in zip(refitted.trees, fresh.trees):
            for name in self._FIELDS:
                np.testing.assert_array_equal(
                    getattr(tr.node_arrays, name), getattr(tf.node_arrays, name), err_msg=name
                )
        np.testing.assert_array_equal(refitted.flat.predict_all(X2), fresh.flat.predict_all(X2))
        np.testing.assert_array_equal(refitted.predict_with_std(X2), fresh.predict_with_std(X2))
        assert refitted.oob_error() == fresh.oob_error()
