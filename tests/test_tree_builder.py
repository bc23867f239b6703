"""Tests for the histogram-binned, frontier-batched tree fitting engine.

The exact splitter and the per-tree histogram grower these tests compare
against live in ``oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ExactTreeRegressor,
    exact_forest,
    grow_tree_hist,
    per_tree_hist_forest,
    predict_trees_reference,
)
from repro.core.forest import RandomForestRegressor
from repro.core.tree import DecisionTreeRegressor
from repro.core.tree_builder import BinMapper, grow_forest_hist


def _integer_data(seed, n=120, d=4, n_values=5, y_span=32):
    """Integer-valued features and targets: binning is lossless and every
    split statistic is an exact float64 sum, so hist and exact agree."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n, d)).astype(np.float64)
    y = rng.integers(0, y_span, size=n).astype(np.float64)
    return X, y


class TestBinMapper:
    def test_lossless_thresholds_are_midpoints(self):
        X = np.array([[0.0], [2.0], [1.0], [2.0], [5.0]])
        mapper = BinMapper().fit(X)
        np.testing.assert_array_equal(mapper.bin_thresholds_[0], [0.5, 1.5, 3.5])
        np.testing.assert_array_equal(mapper.n_bins_, [4])
        np.testing.assert_array_equal(mapper.transform(X).ravel(), [0, 2, 1, 2, 3])

    def test_threshold_semantics_for_arbitrary_inputs(self):
        """bin(x) <= b must hold exactly when x <= thresholds[b], for any x."""
        rng = np.random.default_rng(0)
        X = rng.choice([0.0, 0.25, 1.0, 3.0, 9.0], size=(64, 1))
        mapper = BinMapper().fit(X)
        thr = mapper.bin_thresholds_[0]
        queries = np.concatenate([rng.uniform(-2, 12, size=200), thr, X.ravel()])
        bins = mapper.transform(queries.reshape(-1, 1)).ravel()
        for b in range(thr.size):
            np.testing.assert_array_equal(bins <= b, queries <= thr[b])

    def test_wide_column_respects_max_bins(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5000, 2))
        mapper = BinMapper(max_bins=64).fit(X)
        assert np.all(mapper.n_bins_ <= 64)
        binned = mapper.transform(X)
        assert binned.dtype == np.uint8
        assert binned.max() <= 63
        # Equal-frequency-ish: no bin should hold a wildly outsized share.
        counts = np.bincount(binned[:, 0], minlength=int(mapper.n_bins_[0]))
        assert counts.max() < 0.1 * X.shape[0]

    def test_constant_column(self):
        X = np.full((10, 1), 3.0)
        mapper = BinMapper().fit(X)
        assert mapper.bin_thresholds_[0].size == 0
        assert np.all(mapper.transform(X) == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1)
        with pytest.raises(ValueError):
            BinMapper(max_bins=256)
        with pytest.raises(ValueError):
            BinMapper().fit(np.array([[np.nan]]))
        with pytest.raises(RuntimeError):
            BinMapper().transform(np.zeros((2, 2)))
        mapper = BinMapper().fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mapper.transform(np.zeros((3, 5)))


class TestHistExactEquivalence:
    """On losslessly binnable data the histogram engine grows the same
    partitions as the exact splitter oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_training_predictions_identical(self, seed):
        X, y = _integer_data(seed)
        exact = ExactTreeRegressor(random_state=0).fit(X, y)
        hist = DecisionTreeRegressor(random_state=0).fit(X, y)
        np.testing.assert_array_equal(exact.predict(X), hist.predict(X))
        assert exact.n_leaves == hist.n_leaves
        assert exact.depth == hist.depth

    @pytest.mark.parametrize("seed", range(8))
    def test_binary_columns_identical_everywhere(self, seed):
        """With two-valued columns (booleans / one-hot blocks) even the
        thresholds coincide, so predictions agree on *arbitrary* queries."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(150, 6)).astype(np.float64)
        y = rng.integers(0, 64, size=150).astype(np.float64)
        exact = ExactTreeRegressor(random_state=1).fit(X, y)
        hist = DecisionTreeRegressor(random_state=1).fit(X, y)
        queries = rng.uniform(-1, 2, size=(500, 6))
        np.testing.assert_array_equal(exact.predict(queries), hist.predict(queries))

    @pytest.mark.parametrize("seed", range(4))
    def test_forest_equivalence_on_binary_columns(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.integers(0, 2, size=(80, 5)).astype(np.float64)
        y = rng.integers(0, 32, size=80).astype(np.float64)
        # Same seeds, so every exact tree sees its hist twin's bootstrap rows.
        exact = exact_forest(X, y, n_estimators=8, max_features=None, random_state=seed)
        hist = RandomForestRegressor(n_estimators=8, max_features=None, random_state=seed).fit(X, y)
        queries = rng.uniform(-1, 2, size=(200, 5))
        np.testing.assert_array_equal(
            predict_trees_reference(exact, queries).mean(axis=0), hist.predict(queries)
        )

    def test_hyperparameters_respected(self):
        X, y = _integer_data(3, n=300)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=12, random_state=0).fit(X, y)
        assert tree.depth <= 3
        nodes = tree.node_arrays
        assert np.all(nodes.n_samples[nodes.feature < 0] >= 12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hist_predictions_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.uniform(-5, 5, size=40)
        tree = DecisionTreeRegressor(random_state=seed).fit(X, y)
        pred = tree.predict(rng.normal(size=(20, 3)))
        assert np.all(pred >= y.min() - 1e-9) and np.all(pred <= y.max() + 1e-9)


class TestWeightVectorBootstrap:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_weights_reproduce_materialized_fit_bit_for_bit(self, seed):
        """An integer weight vector must fit exactly like duplicated rows.

        Targets are dyadic rationals (k/16) so every weighted sum is an exact
        float64 regardless of accumulation order, making the comparison
        bit-for-bit rather than approximate.
        """
        rng = np.random.default_rng(seed)
        n = 60
        X = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
        y = rng.integers(0, 64, size=n) / 16.0
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        materialized_rows = np.repeat(np.arange(n), weights)
        (reference,) = grow_forest_hist(
            binned[materialized_rows],
            mapper.bin_thresholds_,
            y[materialized_rows],
            rngs=[np.random.default_rng(seed)],
        )
        (weighted,) = grow_forest_hist(
            binned,
            mapper.bin_thresholds_,
            y,
            [weights],
            rngs=[np.random.default_rng(seed)],
        )
        for name in ("feature", "threshold", "left", "right", "value", "n_samples", "impurity"):
            np.testing.assert_array_equal(
                getattr(reference, name), getattr(weighted, name), err_msg=name
            )

    def test_zero_weight_rows_are_invisible(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 4, size=(50, 3)).astype(np.float64)
        y = rng.integers(0, 16, size=50).astype(np.float64)
        keep = rng.random(50) < 0.6
        keep[:2] = True
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        (sub,) = grow_forest_hist(
            binned[keep], mapper.bin_thresholds_, y[keep], rngs=[np.random.default_rng(9)]
        )
        (weighted,) = grow_forest_hist(
            binned, mapper.bin_thresholds_, y, [keep.astype(float)], rngs=[np.random.default_rng(9)]
        )
        np.testing.assert_array_equal(sub.value, weighted.value)
        np.testing.assert_array_equal(sub.feature, weighted.feature)

    def test_forest_oob_rows_are_zero_weight_rows(self):
        X, y = _integer_data(7, n=100)
        forest = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
        oob = forest.oob_error()
        assert np.isfinite(oob) and oob >= 0
        # Every out-of-bag row is genuinely absent from the tree's resample.
        for tree, oob_idx in zip(forest.trees, forest._oob_indices):
            assert tree.node_arrays.n_samples[0] == X.shape[0]
            assert oob_idx.size == 0 or np.all(oob_idx < X.shape[0])


class TestSharedBinning:
    def test_forest_accepts_external_mapper_and_prebinned(self):
        X, y = _integer_data(11, n=90)
        mapper = BinMapper().fit(X)
        plain = RandomForestRegressor(n_estimators=6, random_state=2).fit(X, y)
        shared = RandomForestRegressor(n_estimators=6, random_state=2).fit(
            X, y, bin_mapper=mapper, prebinned=mapper.transform(X)
        )
        np.testing.assert_array_equal(plain.predict(X), shared.predict(X))
        assert shared.bin_mapper is mapper
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=2).fit(X, y, prebinned=mapper.transform(X))

    def test_surrogate_prebinned_matches_internal_binning(self):
        from repro.core.objectives import Objective, ObjectiveSet
        from repro.core.parameters import BooleanParameter, OrdinalParameter
        from repro.core.space import DesignSpace
        from repro.core.surrogate import MultiObjectiveSurrogate

        space = DesignSpace(
            [OrdinalParameter("a", [1, 2, 4, 8]), BooleanParameter("b")], name="s"
        )
        objectives = ObjectiveSet([Objective("m")])
        configs = space.sample(24, rng=np.random.default_rng(0))
        metrics = [{"m": float(c["a"]) + (1.0 if c["b"] else 0.0)} for c in configs]
        X = space.encode(configs)
        mapper = BinMapper().fit(X)
        s1 = MultiObjectiveSurrogate(space, objectives, n_estimators=6, random_state=1)
        s1.fit_encoded(X, metrics)
        s2 = MultiObjectiveSurrogate(space, objectives, n_estimators=6, random_state=1)
        s2.fit_encoded(X, metrics, bin_mapper=mapper, prebinned=mapper.transform(X))
        pool = space.enumerate()
        np.testing.assert_array_equal(s1.predict(pool), s2.predict(pool))


def _pocket_data():
    """96 easy samples plus a 4-sample pocket holding the remaining signal.

    Feature 0 isolates the pocket (root gain 15.4 per sample); feature 1
    resolves it but is noise among the 96 (so it cannot win at the root).
    The pocket split is worth 100 per *node* sample yet only 4 per *dataset*
    sample — normalizing the gain by the dataset (the old bug) suppressed it
    for any min_impurity_decrease in between.
    """
    X = np.zeros((100, 2))
    y = np.zeros(100)
    X[:96, 1] = np.arange(96) % 2
    X[96:, 0] = 1.0
    X[98:, 1] = 1.0
    y[96:98] = 10.0
    y[98:] = 30.0
    return X, y


_TREE_ENGINES = {"exact": ExactTreeRegressor, "hist": DecisionTreeRegressor}


class TestGainNormalization:
    """min_impurity_decrease is normalized by the node, not the full dataset."""

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_deep_small_node_still_splits(self, splitter):
        X, y = _pocket_data()
        tree = _TREE_ENGINES[splitter](min_impurity_decrease=5.0, random_state=0).fit(X, y)
        assert tree.predict(np.array([[1.0, 0.0]]))[0] == pytest.approx(10.0)
        assert tree.predict(np.array([[1.0, 1.0]]))[0] == pytest.approx(30.0)

    @pytest.mark.parametrize("splitter", ["exact", "hist"])
    def test_large_threshold_still_prunes(self, splitter):
        X, y = _pocket_data()
        # Per-node gains: root 15.4 per sample, pocket 100 — both below 200.
        tree = _TREE_ENGINES[splitter](min_impurity_decrease=200.0, random_state=0).fit(X, y)
        assert tree.n_leaves == 1


class TestGrowTreeValidation:
    def test_input_checks(self):
        mapper = BinMapper().fit(np.zeros((4, 2)))
        binned = mapper.transform(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            grow_forest_hist(binned, mapper.bin_thresholds_, np.zeros(3), n_trees=1)
        with pytest.raises(ValueError):
            grow_forest_hist(binned, mapper.bin_thresholds_[:1], np.zeros(4), n_trees=1)
        with pytest.raises(ValueError):
            grow_forest_hist(binned, mapper.bin_thresholds_, np.zeros(4), [np.zeros(4)])

    def test_constant_features_single_leaf(self):
        mapper = BinMapper().fit(np.zeros((6, 2)))
        (nodes,) = grow_forest_hist(
            mapper.transform(np.zeros((6, 2))), mapper.bin_thresholds_, np.arange(6.0), n_trees=1
        )
        assert nodes.feature.size == 1 and nodes.feature[0] == -1
        assert nodes.value[0] == pytest.approx(2.5)


class TestGrowForestHist:
    """The forest-level grower must match the per-tree oracle bit-for-bit."""

    _FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_per_tree_grower_bit_for_bit(self, seed):
        """Same seeds, same weights: one frontier across all trees must give
        exactly the node tables of growing each tree alone (dyadic targets
        keep every split statistic an exact float64)."""
        rng = np.random.default_rng(seed)
        n, d, n_trees = 80, 4, 5
        X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 64, size=n) / 16.0
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        weights = [
            np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
            for _ in range(n_trees)
        ]
        batched = grow_forest_hist(
            binned,
            mapper.bin_thresholds_,
            y,
            weights,
            n_feat_per_split=2,
            rngs=[np.random.default_rng((seed, t)) for t in range(n_trees)],
        )
        for t in range(n_trees):
            single = grow_tree_hist(
                binned,
                mapper.bin_thresholds_,
                y,
                weights[t],
                n_feat_per_split=2,
                rng=np.random.default_rng((seed, t)),
            )
            for name in self._FIELDS:
                np.testing.assert_array_equal(
                    getattr(single, name), getattr(batched[t], name), err_msg=f"tree {t}: {name}"
                )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_depth": 3},
            {"min_samples_leaf": 4, "min_samples_split": 6},
            {"min_impurity_decrease": 0.5},
            {"n_feat_per_split": 1},
        ],
    )
    def test_hyperparameters_match_per_tree_grower(self, kwargs):
        X, y = _integer_data(23, n=100, d=5)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        n_trees = 4
        batched = grow_forest_hist(
            binned,
            mapper.bin_thresholds_,
            y,
            rngs=[np.random.default_rng(100 + t) for t in range(n_trees)],
            **kwargs,
        )
        for t in range(n_trees):
            single = grow_tree_hist(
                binned, mapper.bin_thresholds_, y, rng=np.random.default_rng(100 + t), **kwargs
            )
            for name in self._FIELDS:
                np.testing.assert_array_equal(
                    getattr(single, name), getattr(batched[t], name), err_msg=f"tree {t}: {name}"
                )

    @pytest.mark.parametrize(
        "trees_per_slice, slices",
        [pytest.param(1, [1] * 8, id="1-per-slice"), pytest.param(3, [3, 3, 2], id="3-3-2")],
    )
    def test_sliced_fit_matches_one_pass(self, monkeypatch, trees_per_slice, slices):
        """A scratch budget that admits only some of the trees per grower call
        must give the node tables of growing the whole forest in one call."""
        import repro.core.forest as fmod

        X, y = _integer_data(31, n=150, d=5)
        one_pass = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y)
        per_tree = 3 * 8 * X.shape[0] * X.shape[1] * int(one_pass.bin_mapper.n_bins_.max())
        calls = []

        def spy(*args, **kwargs):
            calls.append(len(kwargs["rngs"]))
            return grow_forest_hist(*args, **kwargs)

        monkeypatch.setattr(fmod, "grow_forest_hist", spy)
        # A budget one byte short of trees_per_slice + 1 trees.
        monkeypatch.setattr(
            fmod, "FOREST_SCRATCH_BUDGET_BYTES", (trees_per_slice + 1) * per_tree - 1
        )
        sliced = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y)
        assert calls == slices
        for t_one, t_sliced in zip(one_pass.trees, sliced.trees):
            for name in self._FIELDS:
                np.testing.assert_array_equal(
                    getattr(t_one.node_arrays, name),
                    getattr(t_sliced.node_arrays, name),
                    err_msg=name,
                )
        np.testing.assert_array_equal(one_pass.predict(X), sliced.predict(X))
        assert one_pass.oob_error() == sliced.oob_error()

    def test_unweighted_trees_and_n_trees_inference(self):
        X, y = _integer_data(41, n=60, d=3)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        trees = grow_forest_hist(binned, mapper.bin_thresholds_, y, n_trees=3)
        single = grow_tree_hist(binned, mapper.bin_thresholds_, y)
        assert len(trees) == 3
        for t in range(3):
            for name in self._FIELDS:
                np.testing.assert_array_equal(getattr(single, name), getattr(trees[t], name))

    def test_validation(self):
        X, y = _integer_data(43, n=20, d=2)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        with pytest.raises(ValueError):
            grow_forest_hist(binned, mapper.bin_thresholds_, y)  # no tree count
        with pytest.raises(ValueError):
            grow_forest_hist(binned, mapper.bin_thresholds_, y, n_trees=2, rngs=[0, 1, 2])
        with pytest.raises(ValueError):
            grow_forest_hist(binned, mapper.bin_thresholds_, y, [np.zeros(20)])


class TestSplittableSlotsOnly:
    """The grower searches only eligible slots of weighted size >= 2 *
    min_samples_leaf; the per-tree oracle searches every eligible slot.
    Their node tables must agree byte for byte."""

    _FIELDS = TestGrowForestHist._FIELDS

    def _assert_same_nodes(self, got, want):
        for t, (a, b) in enumerate(zip(got, want)):
            for name in self._FIELDS:
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f"tree {t}: {name}"

    @staticmethod
    def _skipped_leaves(nodes, low, high):
        """Impure leaves with ``low <= n_samples < high``: eligible slots the
        rule skips when ``min_samples_split <= low`` and ``high <= 2 * msl``."""
        return sum(
            int(np.sum((t.feature < 0) & (t.n_samples >= low) & (t.n_samples < high) & (t.impurity > 1e-6)))
            for t in nodes
        )

    @pytest.mark.parametrize("max_depth", [None, 4])
    @pytest.mark.parametrize("max_features", [0.75, 1.0])
    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
    def test_forest_matches_per_tree_oracle(self, min_samples_leaf, max_features, max_depth):
        X, y = _integer_data(51, n=160, d=5)
        params = dict(max_features=max_features, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        forest = RandomForestRegressor(n_estimators=6, random_state=7, **params).fit(X, y)
        mapper = BinMapper().fit(X)
        oracle = per_tree_hist_forest(
            mapper.transform(X), mapper.bin_thresholds_, y, n_estimators=6, random_state=7, **params
        )
        self._assert_same_nodes([t.node_arrays for t in forest.trees], oracle)
        if min_samples_leaf > 1 and max_depth is None:
            assert self._skipped_leaves(oracle, 2, 2 * min_samples_leaf) > 0

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
    def test_fractional_weights_match_per_tree_oracle(self, min_samples_leaf):
        """Inexact weighted sums: the rule still holds (Sw - cw is exact or
        negative whenever cw > Sw / 2), so no slot it skips could split."""
        rng = np.random.default_rng(61)
        X, _ = _integer_data(61, n=150, d=4)
        y = rng.normal(size=150)
        mapper = BinMapper().fit(X)
        binned = mapper.transform(X)
        weights = [rng.uniform(0.05, 1.5, 150) * (rng.uniform(size=150) < 0.8) for _ in range(4)]
        kwargs = dict(min_samples_leaf=min_samples_leaf, n_feat_per_split=3)
        batched = grow_forest_hist(
            binned, mapper.bin_thresholds_, y, weights,
            rngs=[np.random.default_rng((61, t)) for t in range(4)], **kwargs,
        )
        single = [
            grow_tree_hist(
                binned, mapper.bin_thresholds_, y, weights[t], rng=np.random.default_rng((61, t)), **kwargs
            )
            for t in range(4)
        ]
        self._assert_same_nodes(batched, single)
        if min_samples_leaf > 1:
            # n_samples is the rounded weighted size: 3 <= n_samples <
            # 2 * msl puts it in [2.5, 2 * msl - 0.5).
            assert self._skipped_leaves(single, 3, 2 * min_samples_leaf) > 0
