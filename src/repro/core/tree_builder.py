"""Histogram-binned, frontier-batched tree fitting engine.

Forest *fitting* is the hot path of every HyperMapper active-learning
iteration: both per-objective forests are refitted from scratch each round.
A sort-based CART splitter pays one ``argsort`` per (node, candidate
feature); this module uses the LightGBM-style histogram strategy instead:

* :class:`BinMapper` quantizes every feature column into at most 255
  ``uint8`` bins.  Design-space feature matrices are tiny alphabets
  (ordinal values, booleans, one-hot blocks), so binning is almost always
  *lossless* — every distinct value gets its own bin and the candidate
  thresholds are exactly the midpoints a sort-based splitter would consider.
  The mapper is derived once per run from the configuration-pool matrix and
  cached on it (:class:`repro.core.sampling.EncodedPool`), so every refit of
  every tree across all iterations reuses one shared binned matrix.

* :func:`grow_forest_hist` is the only tree grower.  It grows every tree of
  a forest breadth-first and level-synchronously: one frontier spans
  ``(tree, node)`` pairs, and split search is cumulative bin-statistic scans
  (``np.bincount`` histograms of weight / weight·y / weight·y² per bin — the
  gather-free formulation of the ``np.add.at`` scatter) vectorized across
  **all features of all frontier nodes of all trees at once**.  Each level
  only scans the *smaller* child of every split: the larger sibling's
  histogram is obtained by parent-minus-sibling subtraction.

* The split search runs only where a split can exist: on *eligible* slots
  (the stopping rules) of weighted size at least ``2 * min_samples_leaf``,
  and over each feature's real bin boundaries.  No boundary of a smaller
  slot leaves ``min_samples_leaf`` on both sides, for any non-negative
  weights, so those slots become leaves exactly as a full search would
  leave them; histograms are built only for searched slots and the
  siblings their subtractions read.  ``eligible`` itself is not narrowed:
  it decides which trees draw a feature subset from their generator at a
  level, so narrowing it would change every later draw of those trees.
  :meth:`repro.core.forest.RandomForestRegressor.fit` calls it over slices
  of its trees, and :meth:`repro.core.tree.DecisionTreeRegressor.fit` calls
  it for a forest of one.

* Bootstrap resamples are per-row integer **weight vectors**
  (``np.bincount`` of the draw) instead of materialized row copies, so all
  trees of a forest share one binned matrix and the out-of-bag rows are
  simply ``weight == 0``.  Weighted statistics make the fit identical to
  fitting on materialized duplicate rows (sample counts, node means, split
  gains all agree; sums are bit-identical whenever the targets sum exactly,
  e.g. integer-valued or dyadic ``y``).

The grower emits flat :class:`_NodeArrays` with genuine float thresholds,
valid for arbitrary inputs at prediction time, which the flat-forest
inference kernels consume.  The sort-based splitter and a one-tree-at-a-time
histogram grower are kept in ``tests/oracles.py`` as the references the
equivalence tests compare this engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.rng import RandomState, as_generator

#: Highest bin count representable in a ``uint8`` binned matrix.
MAX_BINS = 255


@dataclass
class _NodeArrays:
    """Flat array representation of a fitted tree."""

    feature: np.ndarray  # (n_nodes,) int64, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int64, -1 for leaves
    right: np.ndarray  # (n_nodes,) int64, -1 for leaves
    value: np.ndarray  # (n_nodes,) float64 mean target at node
    n_samples: np.ndarray  # (n_nodes,) int64
    impurity: np.ndarray  # (n_nodes,) float64 variance at node


class BinMapper:
    """Quantize feature columns into at most ``max_bins`` ``uint8`` bins.

    Per column the mapper stores the sorted *thresholds* separating
    consecutive bins: value ``x`` falls into bin ``searchsorted(thr, x)``,
    i.e. bin ``b`` holds exactly the values with
    ``thr[b-1] < x <= thr[b]``.  A tree split "bin <= b" therefore means
    precisely ``x <= thr[b]`` for every possible input, which is what lets
    the histogram grower emit ordinary float thresholds.

    Columns with at most ``max_bins`` distinct values are binned losslessly
    (thresholds are the midpoints between consecutive distinct values — the
    same candidate set a sort-based splitter scans).  Wider columns get
    equal-frequency bins with boundaries snapped to midpoints between
    adjacent observed values.
    """

    def __init__(self, max_bins: int = MAX_BINS) -> None:
        if not (2 <= int(max_bins) <= MAX_BINS):
            raise ValueError(f"max_bins must be in [2, {MAX_BINS}], got {max_bins}")
        self.max_bins = int(max_bins)
        self.bin_thresholds_: Optional[List[np.ndarray]] = None
        self.n_bins_: Optional[np.ndarray] = None

    # -- fitting -------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "BinMapper":
        """Derive per-column bin thresholds from the reference matrix ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        thresholds: List[np.ndarray] = []
        for j in range(X.shape[1]):
            uniq, counts = np.unique(X[:, j], return_counts=True)
            if uniq.size <= self.max_bins:
                thr = 0.5 * (uniq[:-1] + uniq[1:])
            else:
                # Equal-frequency boundaries over the observed distribution.
                cum = np.cumsum(counts)
                targets = cum[-1] * np.arange(1, self.max_bins) / self.max_bins
                pos = np.searchsorted(cum, targets)
                pos = np.unique(np.minimum(pos, uniq.size - 2))
                thr = 0.5 * (uniq[pos] + uniq[pos + 1])
            thresholds.append(np.ascontiguousarray(thr, dtype=np.float64))
        self.bin_thresholds_ = thresholds
        self.n_bins_ = np.array([t.size + 1 for t in thresholds], dtype=np.int64)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``X`` onto its ``uint8`` bin-index matrix."""
        thresholds = self._require_fitted()
        X = np.asarray(X, dtype=np.float64)
        one_d = X.ndim == 1
        if one_d:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != len(thresholds):
            raise ValueError(f"expected (n, {len(thresholds)}) features, got shape {X.shape}")
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, thr in enumerate(thresholds):
            binned[:, j] = np.searchsorted(thr, X[:, j], side="left")
        return binned[0] if one_d else binned

    # -- introspection -------------------------------------------------------
    @property
    def n_features(self) -> int:
        """Number of columns the mapper was fitted on."""
        return len(self._require_fitted())

    def _require_fitted(self) -> List[np.ndarray]:
        if self.bin_thresholds_ is None:
            raise RuntimeError("this BinMapper is not fitted yet")
        return self.bin_thresholds_


def _gather_segments(order: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``order[s:s + l]`` for every ``(s, l)``, concatenated in that order.

    Position ``j`` of segment ``i`` is ``starts[i] + j``, which is
    ``(starts[i] - offset[i]) + k`` at output index ``k = offset[i] + j``
    (``offset`` being the exclusive running total of ``lengths``), so the
    whole gather is one ``repeat`` plus one ``arange``.
    """
    offsets = np.cumsum(lengths) - lengths
    return order.take(np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum())))


def grow_forest_hist(
    binned: np.ndarray,
    bin_thresholds: Sequence[np.ndarray],
    y: np.ndarray,
    sample_weights: Optional[Sequence[Optional[np.ndarray]]] = None,
    *,
    n_trees: Optional[int] = None,
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    min_impurity_decrease: float = 0.0,
    n_feat_per_split: Optional[int] = None,
    rngs: Optional[Sequence[RandomState]] = None,
) -> List[_NodeArrays]:
    """Grow every tree of a forest breadth-first *together*, level-synchronously.

    One frontier spans ``(tree, node)`` pairs across all trees: each level's
    histograms are a single :func:`np.bincount` pass over the shared binned
    matrix (per-tree bootstrap weights stacked as a ``(n_trees, n)`` matrix),
    and the split search is one cumulative bin-statistic scan over every
    feature of every frontier node of every tree.  A 32-tree refit therefore
    touches the binned matrix once per level instead of 32 times, turning
    ~10 NumPy dispatches × levels × trees into ~10 × levels.

    A tree's node table does not depend on the other trees of the call:
    slots stay tree-major so every per-(slot, feature, bin) accumulation runs
    in the tree's own row order, and each tree consumes only its own
    generator (one ``random((S_t, d))`` draw per level while the tree still
    has an eligible frontier node; no draw the level it stops).  Growing a
    forest over several calls on slices of its trees, or one tree per call,
    gives the same node tables as one call.

    Parameters
    ----------
    binned:
        ``(n, d)`` ``uint8`` bin indices (see :class:`BinMapper`).
    bin_thresholds:
        Per-column float thresholds between consecutive bins; splitting at
        bin boundary ``b`` emits threshold ``bin_thresholds[j][b]``.
    y:
        ``(n,)`` regression targets.
    sample_weights:
        Per-tree non-negative weight vectors (``None`` entries mean unit
        weights) or a stacked ``(n_trees, n)`` matrix.  Integer vectors are
        the forest's bootstrap resamples; ``min_samples_*`` and node sizes
        count *weighted* samples, matching a materialized resample exactly.
        Zero-weight rows are ignored entirely.
    n_trees:
        Forest size; inferred from ``sample_weights``/``rngs`` when omitted.
    max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease:
        Usual CART stopping rules (on weighted counts / per-sample gain,
        normalized by the node's weighted size).
    n_feat_per_split:
        Features examined per node (``None`` for all); each frontier node
        draws its own subset from its tree's generator.
    rngs:
        One independent generator (or seed) per tree for the feature subsets.

    Returns
    -------
    list of _NodeArrays
        Per-tree flat node arrays in breadth-first order.

    Notes
    -----
    Peak scratch memory is ``O(frontier_slots * d * max_bins)`` floats per
    statistic with ``frontier_slots`` summed over all trees of the call;
    ``RandomForestRegressor.fit`` bounds it by growing its trees in slices
    (see ``forest.FOREST_SCRATCH_BUDGET_BYTES``).
    """
    binned = np.ascontiguousarray(binned, dtype=np.uint8)
    if binned.ndim != 2:
        raise ValueError(f"binned must be 2-D, got shape {binned.shape}")
    n, d = binned.shape
    if len(bin_thresholds) != d:
        raise ValueError("bin_thresholds must have one entry per column")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != n:
        raise ValueError("binned and y have inconsistent lengths")
    if n_trees is None:
        if rngs is not None:
            n_trees = len(rngs)
        elif sample_weights is not None:
            n_trees = len(sample_weights)
        else:
            raise ValueError("n_trees is required when neither sample_weights nor rngs is given")
    T = int(n_trees)
    if T < 1:
        raise ValueError("n_trees must be >= 1")
    if rngs is None:
        rngs = [None] * T
    if len(rngs) != T:
        raise ValueError("rngs must have one entry per tree")
    gens = [as_generator(r) for r in rngs]
    W = np.ones((T, n), dtype=np.float64)
    if sample_weights is not None:
        if len(sample_weights) != T:
            raise ValueError("sample_weights must have one entry per tree")
        for t in range(T):
            sw = sample_weights[t]
            if sw is None:
                continue
            swv = np.asarray(sw, dtype=np.float64).ravel()
            if swv.shape[0] != n:
                raise ValueError("sample_weight must have one entry per row")
            if np.any(swv < 0) or not np.any(swv > 0):
                raise ValueError(
                    "sample_weight must be non-negative with at least one positive entry"
                )
            W[t] = swv
    if n_feat_per_split is None or n_feat_per_split > d:
        n_feat_per_split = d

    n_bins = np.array([t.size + 1 for t in bin_thresholds], dtype=np.int64)
    B = int(n_bins.max())
    WY = W * y[None, :]
    WY2 = WY * y[None, :]
    # Flattened stacks: global row id g = tree * n + row indexes all three.
    Wf, WYf, WY2f = W.ravel(), WY.ravel(), WY2.ravel()

    order_parts: List[np.ndarray] = []
    seg_bounds = [0]
    root_stats = np.empty((T, 3), dtype=np.float64)
    for t in range(T):
        order_t = np.flatnonzero(W[t] > 0).astype(np.int64)
        root_stats[t] = (
            float(np.sum(W[t][order_t])),
            float(np.sum(WY[t][order_t])),
            float(np.sum(WY2[t][order_t])),
        )
        order_parts.append(order_t + t * n)
        seg_bounds.append(seg_bounds[-1] + order_t.size)

    # Node storage is one chunk of vectorized per-node fields per level
    # (chunk 0 = the T roots, chunk L = every child allocated at level L, in
    # slot order).  Frontier slot s at level L is exactly entry s of chunk L,
    # so recording a level's splits is a handful of fancy-indexed writes
    # instead of a Python loop over nodes; `_finish_chunks` reassembles the
    # per-tree breadth-first arrays (chunk order is id order within a tree).
    root_mean = root_stats[:, 1] / root_stats[:, 0]
    chunk_tree: List[np.ndarray] = [np.arange(T, dtype=np.int64)]
    chunk_feature: List[np.ndarray] = [np.full(T, -1, dtype=np.int64)]
    chunk_threshold: List[np.ndarray] = [np.zeros(T, dtype=np.float64)]
    chunk_left: List[np.ndarray] = [np.full(T, -1, dtype=np.int64)]
    chunk_right: List[np.ndarray] = [np.full(T, -1, dtype=np.int64)]
    chunk_value: List[np.ndarray] = [root_mean]
    chunk_n: List[np.ndarray] = [np.round(root_stats[:, 0]).astype(np.int64)]
    chunk_imp: List[np.ndarray] = [
        np.maximum(root_stats[:, 2] / root_stats[:, 0] - root_mean * root_mean, 0.0)
    ]
    node_count = np.ones(T, dtype=np.int64)

    def _finish_chunks() -> List[_NodeArrays]:
        tree_all = np.concatenate(chunk_tree)
        by_tree = np.argsort(tree_all, kind="stable")
        fields = [
            np.concatenate(c)[by_tree]
            for c in (
                chunk_feature,
                chunk_threshold,
                chunk_left,
                chunk_right,
                chunk_value,
                chunk_n,
                chunk_imp,
            )
        ]
        bounds_t = np.concatenate(([0], np.cumsum(np.bincount(tree_all, minlength=T))))
        return [
            _NodeArrays(
                feature=fields[0][s:e],
                threshold=fields[1][s:e],
                left=fields[2][s:e],
                right=fields[3][s:e],
                value=fields[4][s:e],
                n_samples=fields[5][s:e],
                impurity=fields[6][s:e],
            )
            for s, e in zip(bounds_t[:-1], bounds_t[1:])
        ]

    if B < 2:  # every column is constant: nothing to split on
        return _finish_chunks()

    # The split search scans the real bin boundaries only, (feature,
    # boundary) in row-major order: `cols` indexes them in the flattened
    # (d, B - 1) grid of cumulative bins.
    cols = np.flatnonzero(np.arange(B - 1)[None, :] < (n_bins[:, None] - 1))
    col_feat, col_bin = cols // (B - 1), cols % (B - 1)
    col_thr = np.concatenate([np.asarray(thr, dtype=np.float64) for thr in bin_thresholds])
    # Per row and feature, its bin's offset in a slot's (d, B) histogram.
    row_code = (np.arange(d, dtype=np.int64) * B)[None, :] + binned

    # Frontier state: per-slot node id and [start, end) segment of `order`,
    # plus the node's weighted statistics.  Slots are tree-major (every
    # tree's slots contiguous and in its own breadth-first order) and record
    # their owning tree; `order` holds *global* row ids (tree * n + row).
    # A slot flagged in `scan_mask` gets its histogram by a scan of its
    # rows, the others as parent-minus-sibling from the previous level.
    order = np.concatenate(order_parts) if order_parts else np.empty(0, dtype=np.int64)
    tree_of_slot = np.arange(T, dtype=np.int64)
    node_of_slot = np.zeros(T, dtype=np.int64)  # tree-local breadth-first ids
    seg_start = np.asarray(seg_bounds[:-1], dtype=np.int64)
    seg_end = np.asarray(seg_bounds[1:], dtype=np.int64)
    Sw = root_stats[:, 0].copy()
    Swy = root_stats[:, 1].copy()
    Swy2 = root_stats[:, 2].copy()
    scan_mask = np.ones(T, dtype=bool)
    parent_ref = np.zeros(T, dtype=np.int64)
    sibling_ref = np.arange(T, dtype=np.int64)
    H_prev: Optional[tuple] = None

    depth = 0
    while node_of_slot.size:
        S = node_of_slot.size

        # --- 1. stopping rules that need no split search
        mean = Swy / Sw
        sse_node = Swy2 - Swy * mean
        # Purity tolerance mirroring the sort-based splitter's allclose() stop.
        tol = Sw * (1e-8 + 1e-5 * np.abs(mean)) ** 2
        eligible = (Sw >= min_samples_split) & (sse_node > tol)
        if max_depth is not None and depth >= max_depth:
            eligible[:] = False

        if not np.any(eligible):
            break

        # --- 2. per-tree random feature subsets: every tree that still has an
        # eligible frontier node draws one (S_t, d) block from its own
        # generator; a tree whose slots are all ineligible stops *before*
        # drawing, as it would grown alone.  Slots are tree-major, so trees
        # are contiguous runs.  The draws follow `eligible`, so the slot
        # rule below must not narrow it.
        if n_feat_per_split < d:
            R = np.zeros((S, d))
            run_starts = np.flatnonzero(np.diff(tree_of_slot, prepend=-1))
            run_ends = np.append(run_starts[1:], S)
            draws = np.logical_or.reduceat(eligible, run_starts)
            for s0, s1 in zip(run_starts[draws], run_ends[draws]):
                R[s0:s1] = gens[tree_of_slot[s0]].random((s1 - s0, d))

        # Search only slots with Sw >= 2 * min_samples_leaf.  On a smaller
        # slot every boundary with cw >= msl has cw > Sw / 2, so Sw - cw is
        # either exact (Sterbenz) and below msl, or negative: rw < msl, no
        # boundary is valid and the slot ends a leaf with best gain -inf,
        # whatever the (non-negative) weights.
        ks = np.flatnonzero(eligible & (Sw >= 2 * min_samples_leaf))
        K = ks.size
        if K == 0:
            break
        if n_feat_per_split < d:
            ranks = np.argsort(R[ks], axis=1, kind="stable")
            feat_mask = np.zeros((K, d), dtype=bool)
            np.put_along_axis(feat_mask, ranks[:, :n_feat_per_split], True, axis=1)
        else:
            feat_mask = np.ones((K, d), dtype=bool)

        # --- 3. per-slot histograms of (w, w*y, w*y^2) over (feature, bin),
        # only those a searched slot reads: its own, and for a subtracted
        # slot its scanned sibling's.  Searched slots take histogram rows
        # 0..K-1 in slot order, the extra siblings the rows after them.
        # The scanned slots' rows are one `take` of their segments of
        # `order`, concatenated in slot order (no loop over slots).
        searched = np.zeros(S, dtype=bool)
        searched[ks] = True
        extra = np.flatnonzero(scan_mask & ~searched & searched[sibling_ref])
        hist_row = np.empty(S, dtype=np.int64)
        hist_row[ks] = np.arange(K)
        hist_row[extra] = K + np.arange(extra.size)
        size = (K + extra.size) * d * B
        scan_slots = np.flatnonzero(scan_mask & (searched | searched[sibling_ref]))
        lengths = seg_end[scan_slots] - seg_start[scan_slots]
        rows_g = _gather_segments(order, seg_start[scan_slots], lengths)
        slot_rep = np.repeat(hist_row[scan_slots] * (d * B), lengths)
        flat = (slot_rep[:, None] + row_code[rows_g % n]).ravel()
        Hw = np.bincount(flat, weights=np.repeat(Wf[rows_g], d), minlength=size)
        Hwy = np.bincount(flat, weights=np.repeat(WYf[rows_g], d), minlength=size)
        Hwy2 = np.bincount(flat, weights=np.repeat(WY2f[rows_g], d), minlength=size)
        Hw = Hw.reshape(-1, d, B)
        Hwy = Hwy.reshape(-1, d, B)
        Hwy2 = Hwy2.reshape(-1, d, B)
        sub_slots = ks[~scan_mask[ks]]
        if sub_slots.size:
            assert H_prev is not None
            dst, par, sib = hist_row[sub_slots], parent_ref[sub_slots], hist_row[sibling_ref[sub_slots]]
            Hw[dst] = H_prev[0][par] - Hw[sib]
            Hwy[dst] = H_prev[1][par] - Hwy[sib]
            Hwy2[dst] = H_prev[2][par] - Hwy2[sib]
        Hw, Hwy, Hwy2 = Hw[:K], Hwy[:K], Hwy2[:K]

        # --- 4. split search: cumulative bin scans, all searched slots of
        # all trees at once
        SwK, SwyK, Swy2K = Sw[ks], Swy[ks], Swy2[ks]
        cw = np.cumsum(Hw, axis=2)[:, :, :-1].reshape(K, -1)[:, cols]
        cwy = np.cumsum(Hwy, axis=2)[:, :, :-1].reshape(K, -1)[:, cols]
        cwy2 = np.cumsum(Hwy2, axis=2)[:, :, :-1].reshape(K, -1)[:, cols]
        rw = SwK[:, None] - cw
        rwy = SwyK[:, None] - cwy
        rwy2 = Swy2K[:, None] - cwy2
        valid = feat_mask[:, col_feat]
        valid &= (cw >= min_samples_leaf) & (rw >= min_samples_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            sse_split = (cwy2 - cwy * cwy / cw) + (rwy2 - rwy * rwy / rw)
        gain = sse_node[ks][:, None] - sse_split
        gain = np.where(valid, gain, -np.inf)
        best = np.argmax(gain, axis=1)
        best_gain = gain[np.arange(K), best]
        ok = np.flatnonzero(np.isfinite(best_gain) & ~(best_gain / SwK < min_impurity_decrease))
        if ok.size == 0:
            break
        sp = ks[ok]
        best = best[ok]
        best_feat, best_b = col_feat[best], col_bin[best]

        # --- 5. record splits and allocate children (left then right, slot
        # order — tree-major slots keep every tree's breadth-first ids
        # identical to growing it alone).  Child ids are the per-tree
        # running node count plus the child's rank within its tree's run of
        # `sp` (slots are tree-major, so each tree's splits are contiguous).
        lw = cw[ok, best]
        lwy = cwy[ok, best]
        lwy2 = cwy2[ok, best]
        rw_ = Sw[sp] - lw
        rwy_ = Swy[sp] - lwy
        rwy2_ = Swy2[sp] - lwy2
        n_child = 2 * sp.size
        tr = tree_of_slot[sp]
        sp_counts = np.bincount(tr, minlength=T)
        run_offset = np.concatenate(([0], np.cumsum(sp_counts)[:-1]))
        rank = np.arange(sp.size, dtype=np.int64) - run_offset[tr]
        lid = node_count[tr] + 2 * rank
        rid = lid + 1
        node_count += 2 * sp_counts
        chunk_feature[depth][sp] = best_feat
        chunk_threshold[depth][sp] = col_thr[best]
        chunk_left[depth][sp] = lid
        chunk_right[depth][sp] = rid
        child_sw = np.empty(n_child)
        child_swy = np.empty(n_child)
        child_swy2 = np.empty(n_child)
        child_sw[0::2], child_sw[1::2] = lw, rw_
        child_swy[0::2], child_swy[1::2] = lwy, rwy_
        child_swy2[0::2], child_swy2[1::2] = lwy2, rwy2_
        child_mean = child_swy / child_sw
        chunk_tree.append(np.repeat(tr, 2))
        chunk_feature.append(np.full(n_child, -1, dtype=np.int64))
        chunk_threshold.append(np.zeros(n_child, dtype=np.float64))
        chunk_left.append(np.full(n_child, -1, dtype=np.int64))
        chunk_right.append(np.full(n_child, -1, dtype=np.int64))
        chunk_value.append(child_mean)
        chunk_n.append(np.round(child_sw).astype(np.int64))
        chunk_imp.append(
            np.maximum(child_swy2 / child_sw - child_mean * child_mean, 0.0)
        )
        child_node = np.empty(n_child, dtype=np.int64)
        child_node[0::2] = lid
        child_node[1::2] = rid

        # --- 6. partition rows of the splitting slots into child segments:
        # gather their segments of `order` (one `take`, slot order), then
        # one stable sort by (slot, side) lays the children out
        sp_lengths = seg_end[sp] - seg_start[sp]
        rows_g = _gather_segments(order, seg_start[sp], sp_lengths)
        local = np.repeat(np.arange(sp.size, dtype=np.int64), sp_lengths)
        go_right = binned[rows_g % n, best_feat[local]] > best_b[local]
        key = local * 2 + go_right
        perm = np.argsort(key, kind="stable")
        order = rows_g[perm]
        child_len = np.bincount(key, minlength=n_child)
        bounds = np.concatenate(([0], np.cumsum(child_len)))

        # --- 7. next frontier: scan the smaller child, subtract the larger
        left_smaller = child_len[0::2] <= child_len[1::2]
        next_scan = np.empty(n_child, dtype=bool)
        next_scan[0::2] = left_smaller
        next_scan[1::2] = ~left_smaller
        next_sibling = np.arange(n_child, dtype=np.int64)
        next_sibling[0::2] += 1
        next_sibling[1::2] -= 1
        H_prev = (Hw[ok], Hwy[ok], Hwy2[ok])
        parent_ref = np.repeat(np.arange(sp.size, dtype=np.int64), 2)
        sibling_ref = next_sibling
        scan_mask = next_scan
        node_of_slot = child_node
        tree_of_slot = np.repeat(tr, 2)
        seg_start = bounds[:-1]
        seg_end = bounds[1:]
        Sw, Swy, Swy2 = child_sw, child_swy, child_swy2
        depth += 1

    return _finish_chunks()


__all__ = ["BinMapper", "grow_forest_hist", "MAX_BINS", "_NodeArrays"]
