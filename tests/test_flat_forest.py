"""Equivalence tests: flat-forest batched inference vs the per-tree path.

The flat engine must be numerically *identical* (not merely close) to
traversing each tree separately — it visits the same nodes and gathers the
same leaf values, only the batching differs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import predict_trees_reference
from repro.core.flat_forest import FlatForest
from repro.core.forest import RandomForestRegressor
from repro.core.tree import DecisionTreeRegressor


def _regression_problem(n=120, d=4, seed=0, noise=0.2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + noise * rng.normal(size=n)
    return X, y


def _reference_oob_error(forest):
    """The seed's per-tree out-of-bag MSE computation."""
    X, y = forest._X_train, forest._y_train
    n = X.shape[0]
    sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    for tree, oob in zip(forest.trees, forest._oob_indices):
        if oob.size == 0:
            continue
        sums[oob] += tree.predict(X[oob])
        counts[oob] += 1
    covered = counts > 0
    if not np.any(covered):
        return float("nan")
    preds = sums[covered] / counts[covered]
    return float(np.mean((preds - y[covered]) ** 2))


class TestFlatForestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_predict_all_matches_per_tree_loop(self, seed):
        X, y = _regression_problem(seed=seed)
        forest = RandomForestRegressor(n_estimators=12, random_state=seed).fit(X, y)
        Xq = np.random.default_rng(seed + 100).uniform(-4, 4, size=(200, X.shape[1]))
        flat = forest.predict_all_trees(Xq)
        reference = predict_trees_reference(forest.trees, Xq)
        assert flat.shape == reference.shape == (12, 200)
        np.testing.assert_array_equal(flat, reference)

    def test_predict_and_std_match_reference(self):
        X, y = _regression_problem(seed=3)
        forest = RandomForestRegressor(n_estimators=16, random_state=7).fit(X, y)
        Xq = np.random.default_rng(9).uniform(-4, 4, size=(150, X.shape[1]))
        reference = predict_trees_reference(forest.trees, Xq)
        mean, std = forest.predict_with_std(Xq)
        np.testing.assert_array_equal(mean, reference.mean(axis=0))
        np.testing.assert_array_equal(std, reference.std(axis=0))
        np.testing.assert_array_equal(forest.predict(Xq), reference.mean(axis=0))

    def test_oob_error_matches_per_tree_reference(self):
        X, y = _regression_problem(n=200, seed=4, noise=0.5)
        forest = RandomForestRegressor(n_estimators=24, random_state=11).fit(X, y)
        assert forest.oob_error() == pytest.approx(_reference_oob_error(forest), abs=0.0)

    def test_single_sample_and_1d_input(self):
        X, y = _regression_problem(seed=5)
        forest = RandomForestRegressor(n_estimators=6, random_state=5).fit(X, y)
        one = forest.predict(X[0])
        assert one.shape == (1,)
        assert one[0] == pytest.approx(predict_trees_reference(forest.trees, X[:1])[:, 0].mean())

    def test_root_only_trees(self):
        # Constant target: every tree is a single leaf.
        X = np.random.default_rng(0).normal(size=(30, 3))
        y = np.full(30, 2.5)
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        assert forest.flat.n_nodes == 5
        np.testing.assert_array_equal(forest.predict(X), np.full(30, 2.5))

    def test_feature_count_mismatch_raises(self):
        X, y = _regression_problem(seed=6)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            forest.predict(np.zeros((4, X.shape[1] + 1)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_flat_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = rng.uniform(-5, 5, size=n)
        forest = RandomForestRegressor(
            n_estimators=int(rng.integers(1, 9)),
            max_depth=int(rng.integers(1, 8)),
            random_state=seed,
        ).fit(X, y)
        Xq = rng.normal(size=(int(rng.integers(1, 40)), d))
        np.testing.assert_array_equal(
            forest.predict_all_trees(Xq), predict_trees_reference(forest.trees, Xq)
        )


class TestFlatForestConstruction:
    def test_from_trees_offsets(self):
        X, y = _regression_problem(seed=8)
        trees = [
            DecisionTreeRegressor(max_depth=3, random_state=t).fit(X, y) for t in range(4)
        ]
        flat = FlatForest.from_trees(trees)
        assert flat.n_trees == 4
        assert flat.n_nodes == sum(t.n_nodes for t in trees)
        sizes = [t.n_nodes for t in trees]
        np.testing.assert_array_equal(flat.roots, np.concatenate(([0], np.cumsum(sizes)[:-1])))
        # Children stay inside the owning tree's node range.
        for t, (start, size) in enumerate(zip(flat.roots, sizes)):
            seg = slice(int(start), int(start) + size)
            internal = flat.feature[seg] >= 0
            for child in (flat.left[seg][internal], flat.right[seg][internal]):
                assert np.all((child >= start) & (child < start + size))

    def test_empty_trees_rejected(self):
        with pytest.raises(ValueError):
            FlatForest.from_trees([])

    def test_mismatched_feature_counts_rejected(self):
        t1 = DecisionTreeRegressor(random_state=0).fit(np.zeros((4, 2)), np.arange(4.0))
        t2 = DecisionTreeRegressor(random_state=0).fit(np.zeros((4, 3)), np.arange(4.0))
        with pytest.raises(ValueError):
            FlatForest.from_trees([t1, t2])


def _discrete_pool(n, d_ord, seed):
    """A DSE-like feature matrix: ordinal columns, a boolean, a one-hot block."""
    rng = np.random.default_rng(seed)
    cols = [rng.choice([1.0, 2.0, 4.0, 8.0], size=n) for _ in range(d_ord)]
    cols.append(rng.integers(0, 2, n).astype(float))
    onehot = np.eye(3)[rng.integers(0, 3, n)]
    return np.column_stack(cols + [onehot])


class TestBitsetKernel:
    """PoolIndex + predict_all_indexed must match the walker path exactly."""

    @pytest.mark.parametrize("n_pool", [1, 5, 300, 5000])
    def test_matches_walker_on_discrete_pools(self, n_pool):
        from repro.core.flat_forest import PoolIndex

        Xp = _discrete_pool(n_pool, 6, seed=0)
        rng = np.random.default_rng(1)
        Xt = Xp[rng.choice(n_pool, min(n_pool, 100), replace=n_pool < 100)]
        yt = rng.uniform(size=Xt.shape[0])
        forest = RandomForestRegressor(n_estimators=10, min_samples_leaf=2, random_state=0).fit(Xt, yt)
        index = PoolIndex(Xp)
        np.testing.assert_array_equal(
            forest.flat.predict_all_indexed(index), forest.predict_all_trees(Xp)
        )
        np.testing.assert_array_equal(forest.predict_indexed(index), forest.predict(Xp))
        m1, s1 = forest.predict_with_std_indexed(index)
        m2, s2 = forest.predict_with_std(Xp)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(s1, s2)

    def test_matches_walker_with_continuous_columns(self):
        # Continuous columns exceed the dense-cardinality limit, exercising
        # the on-demand per-threshold packing path.
        from repro.core.flat_forest import PoolIndex

        rng = np.random.default_rng(2)
        Xp = np.column_stack(
            [rng.uniform(0, 1, 800), rng.choice([0.0, 1.0, 2.0], 800), rng.uniform(-5, 5, 800)]
        )
        yt = rng.uniform(size=200)
        forest = RandomForestRegressor(n_estimators=8, random_state=3).fit(Xp[:200], yt)
        index = PoolIndex(Xp)
        np.testing.assert_array_equal(
            forest.flat.predict_all_indexed(index), forest.predict_all_trees(Xp)
        )

    def test_chunk_boundaries_and_partial_bytes(self):
        from repro.core.flat_forest import PoolIndex

        # n not divisible by 8 or by the chunk size.
        Xp = _discrete_pool(4103, 4, seed=4)
        rng = np.random.default_rng(5)
        forest = RandomForestRegressor(n_estimators=6, random_state=6).fit(
            Xp[:150], rng.uniform(size=150)
        )
        index = PoolIndex(Xp, chunk=512)
        np.testing.assert_array_equal(
            forest.flat.predict_all_indexed(index), forest.predict_all_trees(Xp)
        )

    def test_root_only_forest(self):
        from repro.core.flat_forest import PoolIndex

        Xp = _discrete_pool(100, 3, seed=7)
        forest = RandomForestRegressor(n_estimators=4, random_state=0).fit(
            Xp[:10], np.full(10, 3.25)
        )
        index = PoolIndex(Xp)
        np.testing.assert_array_equal(forest.predict_indexed(index), np.full(100, 3.25))

    def test_feature_mismatch_rejected(self):
        from repro.core.flat_forest import PoolIndex

        Xp = _discrete_pool(50, 3, seed=8)
        forest = RandomForestRegressor(n_estimators=2, random_state=0).fit(
            Xp[:20], np.arange(20.0)
        )
        with pytest.raises(ValueError):
            forest.flat.predict_all_indexed(PoolIndex(Xp[:, :-1]))

    def test_invalid_chunk_rejected(self):
        from repro.core.flat_forest import PoolIndex

        with pytest.raises(ValueError):
            PoolIndex(_discrete_pool(16, 2, seed=9), chunk=100)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_bitset_matches_walker(self, seed):
        from repro.core.flat_forest import PoolIndex

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        Xp = _discrete_pool(n, int(rng.integers(1, 5)), seed=seed)
        k = min(n, int(rng.integers(2, 80)))
        forest = RandomForestRegressor(
            n_estimators=int(rng.integers(1, 7)),
            max_depth=int(rng.integers(1, 10)),
            random_state=seed,
        ).fit(Xp[:k], rng.uniform(size=k))
        np.testing.assert_array_equal(
            forest.flat.predict_all_indexed(PoolIndex(Xp)), forest.predict_all_trees(Xp)
        )

    def _forest_and_index(self, seed):
        from repro.core.flat_forest import PoolIndex

        Xp = _discrete_pool(600, 4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        X, y = Xp[:150], rng.integers(0, 64, 150) / 16.0
        forest = RandomForestRegressor(n_estimators=8, random_state=seed).fit(X, y)
        return forest, PoolIndex(Xp), Xp, X, y

    def test_index_reused_across_refits_matches_walker(self):
        forest, index, Xp, X, y = self._forest_and_index(seed=5)
        first = forest.flat.predict_all_indexed(index)
        np.testing.assert_array_equal(first, forest.predict_all_trees(Xp))
        forest.fit(X, y[::-1].copy())  # a genuinely different forest
        second = forest.flat.predict_all_indexed(index)
        assert not np.array_equal(second, first)
        np.testing.assert_array_equal(second, forest.predict_all_trees(Xp))

    def test_repeated_predictions_on_one_index_are_identical(self):
        forest, index, Xp, _, _ = self._forest_and_index(seed=0)
        first = forest.flat.predict_all_indexed(index)
        np.testing.assert_array_equal(forest.flat.predict_all_indexed(index), first)
        np.testing.assert_array_equal(first, forest.predict_all_trees(Xp))

    def test_one_index_serves_interleaved_forests(self):
        # Two unrelated forests, each predicted twice on one shared index:
        # the index holds nothing of a forest between calls.
        from repro.core.flat_forest import PoolIndex

        Xp = _discrete_pool(600, 4, seed=10)
        rng = np.random.default_rng(11)
        a = RandomForestRegressor(n_estimators=8, random_state=12).fit(
            Xp[:150], rng.integers(0, 64, 150) / 16.0
        )
        b = RandomForestRegressor(n_estimators=5, min_samples_leaf=3, random_state=13).fit(
            Xp[200:320], rng.uniform(size=120)
        )
        index = PoolIndex(Xp)
        for forest in (a, b, a, b):
            np.testing.assert_array_equal(
                forest.flat.predict_all_indexed(index), forest.predict_all_trees(Xp)
            )

    @staticmethod
    def _assert_bytewise_walker(forest, Xp, chunk):
        """All three indexed entry points equal the walker byte for byte."""
        from repro.core.flat_forest import PoolIndex

        index = PoolIndex(Xp, chunk=chunk)
        assert forest.flat.predict_all_indexed(index).tobytes() == forest.predict_all_trees(Xp).tobytes()
        mean = forest.predict_indexed(index)
        assert mean.tobytes() == forest.predict(Xp).tobytes()
        m, s = forest.predict_with_std_indexed(index)
        m_ref, s_ref = forest.predict_with_std(Xp)
        assert m.tobytes() == m_ref.tobytes() and s.tobytes() == s_ref.tobytes()
        return mean

    def test_multi_byte_leaf_ids_at_every_chunk_size(self):
        """Trees of more than 256 leaves need two id bytes.  1201 samples is
        a multiple of neither 8 nor any chunk, and leaves one sample in the
        last 8-sample chunk, whose mean must still be summed tree by tree."""
        Xp = _discrete_pool(1201, 6, seed=21)
        y = np.random.default_rng(22).uniform(size=1201)
        forest = RandomForestRegressor(n_estimators=8, min_samples_leaf=1, random_state=23).fit(Xp, y)
        assert max(int(np.sum(t.node_arrays.feature < 0)) for t in forest.trees) > 256
        means = [self._assert_bytewise_walker(forest, Xp, chunk) for chunk in (8, 64, 4096)]
        assert means[0].tobytes() == means[1].tobytes() == means[2].tobytes()

    def test_lone_last_column_is_summed_tree_by_tree(self):
        """A one-sample last chunk: numpy would sum a lone column pairwise
        (8+ trees), unlike every column of the full (T, n) matrix."""
        Xp = _discrete_pool(170, 4, seed=30)
        forest = RandomForestRegressor(n_estimators=12, random_state=31).fit(
            Xp, np.random.default_rng(32).uniform(size=170)
        )
        for n in range(9, 170, 8):
            self._assert_bytewise_walker(forest, Xp[:n], 8)

    @pytest.mark.parametrize("chunk", [8, 64, 4096])
    def test_wide_columns_at_every_chunk_size(self, chunk):
        rng = np.random.default_rng(24)
        Xp = np.column_stack(
            [rng.uniform(0, 1, 803), rng.choice([0.0, 1.0, 2.0], 803), rng.uniform(-5, 5, 803)]
        )
        forest = RandomForestRegressor(n_estimators=6, random_state=25).fit(Xp[:300], rng.uniform(size=300))
        self._assert_bytewise_walker(forest, Xp, chunk)

    def test_root_only_trees_and_one_row_pool(self):
        Xp = _discrete_pool(50, 3, seed=26)
        root_only = RandomForestRegressor(n_estimators=9, random_state=27).fit(Xp[:20], np.full(20, 0.1))
        deep = RandomForestRegressor(n_estimators=9, random_state=28).fit(
            Xp, np.random.default_rng(29).uniform(size=50)
        )
        assert root_only.flat.n_nodes == 9
        for forest in (root_only, deep):
            for pool in (Xp, Xp[:1], Xp[7:8]):
                self._assert_bytewise_walker(forest, pool, 8)

    def test_kernel_seconds_advance(self):
        forest, index, _, _, _ = self._forest_and_index(seed=3)
        assert index.kernel_seconds == 0.0
        forest.predict_indexed(index)
        after_one = index.kernel_seconds
        assert after_one > 0.0
        forest.predict_indexed(index)
        assert index.kernel_seconds > after_one


class TestFromNodeArraysValidation:
    def test_zero_trees_rejected(self):
        with pytest.raises(ValueError, match="zero trees"):
            FlatForest.from_node_arrays([], n_features=3)

    def test_empty_forest_from_trees_rejected(self):
        with pytest.raises(ValueError, match="zero trees"):
            FlatForest.from_trees([])

    def test_bad_feature_count_rejected(self):
        forest = RandomForestRegressor(n_estimators=2, random_state=0).fit(
            np.arange(20.0).reshape(10, 2), np.arange(10.0)
        )
        nas = [t.node_arrays for t in forest.trees]
        with pytest.raises(ValueError, match="n_features"):
            FlatForest.from_node_arrays(nas, n_features=0)

    def test_non_node_arrays_rejected(self):
        with pytest.raises(ValueError, match="_NodeArrays-like"):
            FlatForest.from_node_arrays([object()], n_features=2)

    def test_float_index_arrays_rejected(self):
        from repro.core.tree_builder import _NodeArrays

        na = _NodeArrays(
            feature=np.array([0.0, -1.0, -1.0]),  # float: invalid
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            value=np.array([0.0, 1.0, 2.0]),
            n_samples=np.array([2, 1, 1]),
            impurity=np.zeros(3),
        )
        with pytest.raises(ValueError, match="integer array"):
            FlatForest.from_node_arrays([na], n_features=1)

    def test_non_numeric_threshold_rejected(self):
        from repro.core.tree_builder import _NodeArrays

        na = _NodeArrays(
            feature=np.array([-1]),
            threshold=np.array(["x"]),
            left=np.array([-1]),
            right=np.array([-1]),
            value=np.array([1.0]),
            n_samples=np.array([1]),
            impurity=np.zeros(1),
        )
        with pytest.raises(ValueError, match="numeric"):
            FlatForest.from_node_arrays([na], n_features=1)

    def test_zero_node_tree_rejected(self):
        from repro.core.tree_builder import _NodeArrays

        na = _NodeArrays(
            feature=np.empty(0, dtype=np.int64),
            threshold=np.empty(0),
            left=np.empty(0, dtype=np.int64),
            right=np.empty(0, dtype=np.int64),
            value=np.empty(0),
            n_samples=np.empty(0, dtype=np.int64),
            impurity=np.empty(0),
        )
        with pytest.raises(ValueError, match="zero nodes"):
            FlatForest.from_node_arrays([na], n_features=1)

    def test_ragged_tree_arrays_rejected(self):
        from repro.core.tree_builder import _NodeArrays

        na = _NodeArrays(
            feature=np.array([-1, -1]),
            threshold=np.array([0.0]),  # wrong length
            left=np.array([-1, -1]),
            right=np.array([-1, -1]),
            value=np.array([1.0, 2.0]),
            n_samples=np.array([1, 1]),
            impurity=np.zeros(2),
        )
        with pytest.raises(ValueError, match="1-D with"):
            FlatForest.from_node_arrays([na], n_features=1)
