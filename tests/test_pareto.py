"""Unit and property-based tests for the Pareto utilities."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from repro.core.pareto import (
    crowding_distance,
    dominates,
    front_coverage,
    hypervolume_2d,
    nearest_front_distance,
    non_dominated_sort,
    pareto_front,
    pareto_mask,
)

#: The oracle comparisons below guard exact kernels; CI reruns them with
#: ``HYPOTHESIS_PROFILE=oracle-harness`` (1,500 derandomized examples).
settings.register_profile(
    "oracle-harness", max_examples=1500, deadline=None, derandomize=True, print_blob=True
)
ORACLE_SETTINGS = (
    settings(settings.get_profile("oracle-harness"))
    if os.environ.get("HYPOTHESIS_PROFILE") == "oracle-harness"
    else settings(max_examples=150, deadline=None)
)


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([1, 1], [2, 2])
        assert dominates([1, 2], [2, 2])
        assert not dominates([2, 2], [1, 1])
        assert not dominates([1, 3], [2, 2])

    def test_equal_points_do_not_strictly_dominate(self):
        assert not dominates([1, 1], [1, 1])
        assert dominates([1, 1], [1, 1], strict=False)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])


class TestParetoMask:
    def test_simple_front(self):
        values = np.array([[1, 5], [2, 3], [3, 4], [4, 1], [5, 5]])
        mask = pareto_mask(values)
        assert mask.tolist() == [True, True, False, True, False]

    def test_single_objective(self):
        values = np.array([[3.0], [1.0], [2.0], [1.0]])
        assert pareto_mask(values).tolist() == [False, True, False, True]

    def test_duplicates_all_kept(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert pareto_mask(values).tolist() == [True, True, False]

    def test_empty(self):
        assert pareto_mask(np.empty((0, 2))).size == 0

    def test_three_objectives(self):
        values = np.array([[1, 2, 3], [3, 2, 1], [2, 2, 2], [3, 3, 3]])
        mask = pareto_mask(values)
        assert mask.tolist() == [True, True, True, False]

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(2, 3)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    def test_front_members_are_never_dominated(self, values):
        mask = pareto_mask(values)
        assert mask.any()  # at least one non-dominated point always exists
        front_idx = np.flatnonzero(mask)
        dominated_idx = np.flatnonzero(~mask)
        # No front point is dominated by any other point.
        for i in front_idx:
            for j in range(values.shape[0]):
                if j == i:
                    continue
                assert not dominates(values[j], values[i])
        # Every dominated point is dominated by some front point.
        for i in dominated_idx:
            assert any(dominates(values[j], values[i]) for j in front_idx)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.just(2)),
            elements=st.floats(0, 50, allow_nan=False),
        )
    )
    def test_2d_sweep_matches_generic(self, values):
        from repro.core.pareto import _pareto_mask_2d, _pareto_mask_nd

        assert np.array_equal(_pareto_mask_2d(values), _pareto_mask_nd(values))


class TestParetoFront:
    def test_sorted_by_first_objective(self):
        values = np.array([[3, 1], [1, 3], [2, 2]])
        front = pareto_front(values)
        assert np.all(np.diff(front[:, 0]) >= 0)

    def test_return_indices(self):
        values = np.array([[3, 1], [1, 3], [2, 2], [4, 4]])
        front, idx = pareto_front(values, return_indices=True)
        assert np.allclose(values[idx], front)


class TestNonDominatedSortAndCrowding:
    def test_ranks(self):
        values = np.array([[1, 1], [2, 2], [3, 3]])
        assert non_dominated_sort(values).tolist() == [0, 1, 2]

    def test_crowding_boundary_infinite(self):
        values = np.array([[1, 4], [2, 3], [3, 2], [4, 1]])
        crowd = crowding_distance(values)
        assert np.isinf(crowd[0]) and np.isinf(crowd[-1])
        assert np.all(crowd[1:-1] > 0)


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d(np.array([[1.0, 1.0]]), reference=[2.0, 2.0]) == pytest.approx(1.0)

    def test_two_points(self):
        values = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert hypervolume_2d(values, reference=[3.0, 3.0]) == pytest.approx(3.0)

    def test_points_beyond_reference_ignored(self):
        values = np.array([[5.0, 5.0]])
        assert hypervolume_2d(values, reference=[2.0, 2.0]) == 0.0

    def test_monotone_in_points(self):
        base = np.array([[1.0, 2.0]])
        more = np.array([[1.0, 2.0], [0.5, 2.5]])
        ref = [3.0, 3.0]
        assert hypervolume_2d(more, ref) >= hypervolume_2d(base, ref)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.just(2)),
            elements=st.floats(0, 1, allow_nan=False),
        )
    )
    def test_bounded_by_reference_box(self, values):
        hv = hypervolume_2d(values, reference=[1.0, 1.0])
        assert 0.0 <= hv <= 1.0 + 1e-9


class TestCoverageAndDistance:
    def test_front_coverage(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[2.0, 2.0], [0.5, 0.5]])
        assert front_coverage(a, b) == pytest.approx(0.5)

    def test_nearest_front_distance(self):
        front = np.array([[0.0, 0.0], [1.0, 1.0]])
        d = nearest_front_distance(np.array([[0.0, 1.0]]), front)
        assert d[0] == pytest.approx(1.0)

    def test_empty_front_gives_inf(self):
        d = nearest_front_distance(np.array([[0.0, 1.0]]), np.empty((0, 2)))
        assert np.isinf(d[0])


def _pareto_mask_reference(values: np.ndarray) -> np.ndarray:
    """O(n^2) per-pair dominance reference for the vectorized 2-D sweep."""
    n = values.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and dominates(values[j], values[i]):
                mask[i] = False
                break
    return mask


class TestVectorized2DSweep:
    """Property tests of the lexsort + minimum.accumulate Pareto sweep."""

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(2)),
            # A tiny value alphabet forces many duplicated and degenerate
            # (tied-coordinate) points.
            elements=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        )
    )
    def test_matches_pairwise_reference_on_degenerate_grids(self, values):
        from repro.core.pareto import _pareto_mask_2d

        assert np.array_equal(_pareto_mask_2d(values), _pareto_mask_reference(values))

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.just(2)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_matches_pairwise_reference_on_floats(self, values):
        from repro.core.pareto import _pareto_mask_2d

        assert np.array_equal(_pareto_mask_2d(values), _pareto_mask_reference(values))

    def test_all_identical_points_kept(self):
        values = np.tile([[2.0, 3.0]], (7, 1))
        assert pareto_mask(values).all()

    def test_duplicate_dominated_points_all_dropped(self):
        values = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
        assert pareto_mask(values).tolist() == [True, False, False, True]

    def test_tied_first_objective(self):
        values = np.array([[1.0, 5.0], [1.0, 4.0], [1.0, 6.0]])
        assert pareto_mask(values).tolist() == [False, True, False]

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 25), st.just(2)),
            elements=st.sampled_from([0.0, 0.5, 1.0]),
        )
    )
    def test_hypervolume_matches_loop_reference(self, values):
        ref = np.array([1.25, 1.25])
        keep = np.all(values < ref, axis=1)
        pts = values[keep]
        expected = 0.0
        if pts.shape[0]:
            front = pareto_front(pts)
            prev = ref[1]
            for f0, f1 in front:
                expected += (ref[0] - f0) * (prev - f1)
                prev = f1
        assert hypervolume_2d(values, ref) == pytest.approx(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 15), st.just(2)),
            elements=st.sampled_from([0.0, 1.0, 2.0]),
        ),
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 15), st.just(2)),
            elements=st.sampled_from([0.0, 1.0, 2.0]),
        ),
    )
    def test_front_coverage_matches_loop_reference(self, a, b):
        expected = 0.0
        if a.shape[0] and b.shape[0]:
            dominated = sum(
                1 for pb in b if any(dominates(pa, pb) for pa in a)
            )
            expected = dominated / b.shape[0]
        assert front_coverage(a, b) == pytest.approx(expected)


#: Small alphabets force ties in either objective; the specials are the
#: values the running minimum treats specially.
_FINITE = [0.0, 1.0, 2.0, 3.0, -1.0, 0.5]
_SPECIAL = [np.nan, np.inf, -np.inf, -0.0]


@st.composite
def _objective_matrices(draw):
    n = draw(st.integers(1, 40))
    alphabet = _FINITE[: draw(st.integers(1, len(_FINITE)))] + draw(
        st.lists(st.sampled_from(_SPECIAL), unique=True)
    )
    values = draw(hnp.arrays(np.float64, (n, 2), elements=st.sampled_from(alphabet)))
    # Rows whose first objective is NaN, and exact duplicates of other rows.
    for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        values[i, 0] = np.nan
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        values[i] = values[j]
    return values


class TestOneSortFront:
    """The one-``argsort`` 2-D mask equals the ``lexsort`` sweep it replaced."""

    @ORACLE_SETTINGS
    @given(_objective_matrices())
    def test_matches_lexsort_sweep(self, values):
        from repro.core.pareto import _pareto_mask_2d

        expected = oracles.pareto_mask_2d_reference(values)
        assert np.array_equal(_pareto_mask_2d(values), expected)
        assert np.array_equal(pareto_mask(values), expected)

    @pytest.mark.parametrize("specials", [False, True])
    def test_matches_lexsort_sweep_on_a_pool_sized_prediction(self, specials):
        # Forest predictions are means of a few hundred leaf values: a
        # 50,196-row pool (the search-heavy pool) has many ties per column.
        from repro.core.pareto import _pareto_mask_2d

        rng = np.random.default_rng(0)
        leaves = rng.normal(size=(2, 300))
        picks = rng.integers(0, 300, size=(50_196, 2, 8))
        values = np.stack([leaves[k][picks[:, k]].mean(axis=1) for k in range(2)], axis=1)
        values[:, 1] -= 0.8 * values[:, 0]
        if specials:
            rows = rng.integers(0, values.shape[0], size=(4, 20))
            values[rows[0], 0] = np.nan
            values[rows[1], 1] = np.nan
            values[rows[2], 1] = -np.inf
            values[rows[3]] = values[rows[3][::-1]]
        assert np.array_equal(_pareto_mask_2d(values), oracles.pareto_mask_2d_reference(values))

    def test_nan_first_rows_keep_lexsort_order(self):
        # NaN first objectives come last, by (second objective, index).
        values = np.array([[np.nan, 5.0], [np.nan, 1.0], [np.nan, 1.0]])
        assert pareto_mask(values).tolist() == [False, True, False]

    def test_nan_second_objective_shuts_out_later_groups(self):
        values = np.array([[0.0, 3.0], [1.0, np.nan], [2.0, 0.0], [1.0, 2.0]])
        assert pareto_mask(values).tolist() == [True, False, False, True]
