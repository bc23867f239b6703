"""Pareto-dominance utilities for multi-objective optimization.

All functions assume *minimization* of every column.  The optimizer converts
objective values into canonical minimization form (see
:class:`repro.core.objectives.ObjectiveSet`) before calling in here.

The implementation is vectorized: the O(n log n) sweep used for two objectives
(the paper's case: accuracy and runtime) and a generic O(n^2) pairwise check
for three or more objectives (e.g. adding power as in the earlier HyperMapper
work).

The two-objective sweep takes one ``argsort`` of the first objective and
works on groups of equal first objective, so the predicted front over a
50k-row pool costs one sort instead of a two-key ``lexsort``.  Its NaN rule
is the running minimum's: a NaN second objective never joins the front and
shuts out every row with a larger first objective, and rows with a NaN first
objective come last, ordered by second objective and then by index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_matrix(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D objective matrix, got shape {values.shape}")
    return values


def dominates(a: Sequence[float], b: Sequence[float], strict: bool = True) -> bool:
    """Whether point ``a`` Pareto-dominates point ``b`` (minimization).

    ``a`` dominates ``b`` when it is no worse in every objective and, if
    ``strict``, strictly better in at least one.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ValueError("points must have the same number of objectives")
    if np.any(a_arr > b_arr):
        return False
    if strict:
        return bool(np.any(a_arr < b_arr))
    return True


def pareto_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``values`` (minimization).

    Duplicated points are all kept (they do not dominate each other strictly).
    """
    values = _as_matrix(values)
    n, m = values.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    if m == 1:
        best = values[:, 0].min()
        return values[:, 0] == best
    if m == 2:
        return _pareto_mask_2d(values)
    return _pareto_mask_nd(values)


def _pareto_mask_2d(values: np.ndarray) -> np.ndarray:
    """O(n log n) sweep for the bi-objective case, one ``argsort``.

    Rows are sorted by the first objective alone and grouped by equal first
    objective.  A group keeps its rows holding the group's best second
    objective (``np.fmin``, so NaN never wins) when that value strictly
    undercuts the minimum over all earlier groups; every other row is
    dominated.  The value a group passes on is its ``np.minimum``, so a NaN
    second objective shuts out every later group.  NaN first objectives sort
    last, each row its own group, ordered by (second objective, index).

    This is the sweep over rows sorted by (first, second, index) in which a
    row is kept when its second objective undercuts the running minimum of
    the rows before it, and identical rows share their first row's verdict.
    """
    n = values.shape[0]
    f0, f1 = values[:, 0], values[:, 1]
    order = np.argsort(f0)
    n_nan = int(np.count_nonzero(np.isnan(f0)))
    tail = np.sort(order[n - n_nan:])
    order[n - n_nan:] = tail[np.argsort(f1[tail], kind="stable")]
    s0 = f0[order]
    s1 = f1[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(s0[1:], s0[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    best = np.fmin.reduceat(s1, starts)
    passed = np.minimum.reduceat(s1, starts)
    # Minimum over strictly-preceding groups.
    prev = np.empty(starts.size, dtype=np.float64)
    prev[0] = np.inf
    np.minimum.accumulate(passed[:-1], out=prev[1:])
    group = np.cumsum(head) - 1
    keep = (best < prev)[group] & (s1 == best[group])
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep
    return mask


def _pareto_mask_nd(values: np.ndarray) -> np.ndarray:
    """Generic pairwise dominance check (O(n^2), vectorized per row)."""
    n = values.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        no_worse = np.all(values <= values[i], axis=1)
        strictly_better = np.any(values < values[i], axis=1)
        dominators = no_worse & strictly_better
        dominators[i] = False
        if np.any(dominators):
            mask[i] = False
    return mask


def pareto_front(values: np.ndarray, return_indices: bool = False):
    """Non-dominated subset of ``values`` sorted by the first objective.

    Parameters
    ----------
    values:
        ``(n, m)`` objective matrix (minimization).
    return_indices:
        Also return the indices (into ``values``) of the returned rows.
    """
    values = _as_matrix(values)
    mask = pareto_mask(values)
    idx = np.flatnonzero(mask)
    front = values[idx]
    order = np.lexsort(tuple(front[:, k] for k in range(front.shape[1] - 1, -1, -1)))
    front = front[order]
    idx = idx[order]
    if return_indices:
        return front, idx
    return front


def non_dominated_sort(values: np.ndarray) -> np.ndarray:
    """Assign each row its non-domination rank (0 = Pareto-optimal).

    Used by the NSGA-II-style evolutionary baseline.
    """
    values = _as_matrix(values)
    n = values.shape[0]
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    rank = 0
    while np.any(remaining):
        idx = np.flatnonzero(remaining)
        sub_mask = pareto_mask(values[idx])
        front_idx = idx[sub_mask]
        ranks[front_idx] = rank
        remaining[front_idx] = False
        rank += 1
    return ranks


def crowding_distance(values: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each row within its own set.

    Boundary points get ``inf``; larger means more isolated.
    """
    values = _as_matrix(values)
    n, m = values.shape
    if n == 0:
        return np.zeros(0)
    dist = np.zeros(n, dtype=np.float64)
    for j in range(m):
        order = np.argsort(values[:, j], kind="stable")
        col = values[order, j]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span <= 0 or n < 3:
            continue
        dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def hypervolume_2d(values: np.ndarray, reference: Sequence[float]) -> float:
    """Hypervolume dominated by ``values`` w.r.t. ``reference`` (2 objectives).

    The hypervolume indicator is used to quantify how much the active-learning
    front improves over the random-sampling front (larger is better).  Points
    that do not dominate the reference contribute nothing.
    """
    values = _as_matrix(values)
    if values.shape[1] != 2:
        raise ValueError("hypervolume_2d only supports exactly two objectives")
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (2,):
        raise ValueError("reference must be a 2-vector")
    if values.shape[0] == 0:
        return 0.0
    # Keep only points strictly better than the reference in both objectives.
    keep = np.all(values < ref, axis=1)
    pts = values[keep]
    if pts.shape[0] == 0:
        return 0.0
    front = pareto_front(pts)
    # Left neighbor's height caps each point's dominated rectangle; the front
    # is sorted by the first objective so the second is non-increasing.
    prev_f1 = np.concatenate(([ref[1]], front[:-1, 1]))
    return float(np.sum((ref[0] - front[:, 0]) * (prev_f1 - front[:, 1])))


def front_coverage(front_a: np.ndarray, front_b: np.ndarray) -> float:
    """Fraction of points of ``front_b`` dominated by at least one point of ``front_a``.

    The two-set coverage indicator C(A, B) of Zitzler; C(A, B) = 1 means every
    point of B is dominated by some point of A.
    """
    a = _as_matrix(front_a)
    b = _as_matrix(front_b)
    if b.shape[0] == 0:
        return 0.0
    if a.shape[0] == 0:
        return 0.0
    # Pairwise dominance on a broadcast (n_a, n_b, m) grid.
    no_worse = np.all(a[:, None, :] <= b[None, :, :], axis=2)
    strictly_better = np.any(a[:, None, :] < b[None, :, :], axis=2)
    dominated = np.any(no_worse & strictly_better, axis=0)
    return float(dominated.sum() / b.shape[0])


def nearest_front_distance(values: np.ndarray, front: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of ``values`` to its closest front point.

    The active-learning step samples configurations whose *predicted*
    objectives are near the predicted Pareto front; this helper measures that
    proximity.
    """
    values = _as_matrix(values)
    front = _as_matrix(front)
    if front.shape[0] == 0:
        return np.full(values.shape[0], np.inf)
    diff = values[:, None, :] - front[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=2))
    return d.min(axis=1)


__all__ = [
    "dominates",
    "pareto_mask",
    "pareto_front",
    "non_dominated_sort",
    "crowding_distance",
    "hypervolume_2d",
    "front_coverage",
    "nearest_front_distance",
]
