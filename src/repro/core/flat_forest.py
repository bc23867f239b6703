"""Flat-forest batched inference engine.

A fitted random forest is a collection of per-tree node arrays; predicting a
pool of configurations tree-by-tree costs one Python-level traversal loop per
tree (32 by default) on every active-learning iteration.  This module
concatenates every tree's nodes into one contiguous node table — feature /
threshold / left / right / value arrays plus a per-tree root offset — and
provides two batched traversal kernels over it:

* a **walker kernel** (:meth:`FlatForest.apply_all`) that advances all
  ``n_trees × n_samples`` cursors level-synchronously: a fixed-depth
  full-width phase with self-looping leaves (no index bookkeeping at all,
  just contiguous gathers) that switches to a compacted active-set phase once
  most cursors have settled, so a few deep stragglers do not force full-width
  work;

* a **bitset kernel** (:meth:`FlatForest.predict_all_indexed`) for the
  static configuration pool of an active-learning run.  A
  :class:`PoolIndex` is built once per run: per feature column, packed
  "column ≤ value" prefix bitsets over the pool.  Each forest evaluation then
  walks the node table breadth-first, deriving every node's member bitset
  from its parent with one byte-wise AND (left child) and one XOR (right
  child), entirely on L2-resident chunks.  Leaf-membership bitsets are
  composed into leaf indices via bit-plane ORs and a final value-table
  gather.  Work per node is ``pool_bits / 8`` bytes of streaming arithmetic —
  no per-sample random gathers — which is what makes surrogate inference over
  20k–1.8M-configuration pools hardware-speed.  The index holds pool-side
  state only: every call runs the kernel over every tree of the forest it is
  given, since each surrogate refit regrows all trees from scratch.

Numerics are bit-identical to traversing each tree separately: both kernels
resolve every sample to exactly the same leaf (the bitset comparisons reduce
to the same float comparisons against pool values) and gather the same leaf
values, only the batching changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Columns with at most this many distinct pool values get dense prefix
#: bitsets in :class:`PoolIndex`; wider columns (e.g. continuous parameters)
#: fall back to packing per-threshold bitsets at prediction time.
DENSE_COLUMN_CARDINALITY = 64

#: Pool samples per chunk in the bitset kernel.  512-byte bitset rows keep
#: the whole per-chunk node-bitset matrix cache-resident.
POOL_CHUNK = 4096


@dataclass(frozen=True)
class FlatForest:
    """Contiguous node table of an entire forest.

    Attributes
    ----------
    feature:
        ``(total_nodes,)`` split feature per node, ``-1`` for leaves.
    threshold:
        ``(total_nodes,)`` split threshold per node.
    left, right:
        ``(total_nodes,)`` *global* child indices (already offset by the
        owning tree's base), ``-1`` for leaves.
    value:
        ``(total_nodes,)`` mean target at each node.
    roots:
        ``(n_trees,)`` global index of each tree's root node.
    n_features:
        Feature dimensionality the trees were fitted on.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    n_features: int
    # Derived traversal tables (computed in the constructors):
    # children with self-looping leaves, leaf-safe feature/threshold for the
    # full-width walker phase, and the breadth-first level structure.
    _children: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _walk_feature: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _walk_threshold: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _levels: Tuple[np.ndarray, ...] = field(repr=False, default=())
    max_depth: int = 0

    # -- construction -------------------------------------------------------
    @classmethod
    def from_trees(cls, trees: Sequence["object"]) -> "FlatForest":
        """Build from fitted :class:`~repro.core.tree.DecisionTreeRegressor`s."""
        if len(trees) == 0:
            raise ValueError("cannot build a FlatForest from zero trees")
        node_arrays = [t.node_arrays for t in trees]
        n_features = trees[0]._n_features
        for t in trees[1:]:
            if t._n_features != n_features:
                raise ValueError("trees disagree on the number of features")
        return cls.from_node_arrays(node_arrays, int(n_features))

    @classmethod
    def from_node_arrays(cls, node_arrays: Sequence[object], n_features: int) -> "FlatForest":
        """Build from per-tree ``_NodeArrays`` (see :mod:`repro.core.tree`).

        Raises
        ------
        ValueError
            On an empty forest, a tree with zero nodes, inconsistent array
            lengths, or non-numeric / wrong-kind dtypes — all with explicit
            messages instead of the opaque ``IndexError``/``concatenate``
            failures these used to surface as.
        """
        if len(node_arrays) == 0:
            raise ValueError("cannot build a FlatForest from zero trees")
        if int(n_features) < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        per_tree = [cls._validated_tree(i, na) for i, na in enumerate(node_arrays)]
        sizes = np.array([feat.size for feat, *_ in per_tree], dtype=np.int64)
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        feature = np.concatenate([p[0] for p in per_tree])
        threshold = np.concatenate([p[1] for p in per_tree])
        value = np.concatenate([p[4] for p in per_tree])
        left = np.concatenate(
            [np.where(p[2] >= 0, p[2] + off, -1) for p, off in zip(per_tree, roots)]
        )
        right = np.concatenate(
            [np.where(p[3] >= 0, p[3] + off, -1) for p, off in zip(per_tree, roots)]
        )
        leaf = feature < 0
        idx = np.arange(feature.size)
        children = np.empty(2 * feature.size, dtype=np.int64)
        children[0::2] = np.where(leaf, idx, left)
        children[1::2] = np.where(leaf, idx, right)
        walk_feature = np.where(leaf, 0, feature)
        walk_threshold = np.where(leaf, np.inf, threshold)
        # Breadth-first level structure: internal nodes grouped by depth.
        levels: List[np.ndarray] = []
        frontier = roots
        while True:
            internal = frontier[feature[frontier] >= 0]
            if internal.size == 0:
                break
            levels.append(internal)
            frontier = np.concatenate([left[internal], right[internal]])
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=value,
            roots=roots,
            n_features=int(n_features),
            _children=children,
            _walk_feature=walk_feature,
            _walk_threshold=walk_threshold,
            _levels=tuple(levels),
            max_depth=len(levels),
        )

    @staticmethod
    def _validated_tree(i: int, na: object) -> Tuple[np.ndarray, ...]:
        """Validate one tree's node arrays; return canonical-dtype copies."""
        try:
            raw = (na.feature, na.threshold, na.left, na.right, na.value)  # type: ignore[attr-defined]
        except AttributeError as exc:
            raise ValueError(f"tree {i}: expected _NodeArrays-like object, got {type(na).__name__}") from exc
        arrays = [np.asarray(a) for a in raw]
        size = arrays[0].size
        if size == 0:
            raise ValueError(f"tree {i}: has zero nodes; a fitted tree has at least its root")
        for name, arr in zip(("feature", "threshold", "left", "right", "value"), arrays):
            if arr.ndim != 1 or arr.size != size:
                raise ValueError(
                    f"tree {i}: node array {name!r} must be 1-D with {size} entries, "
                    f"got shape {arr.shape}"
                )
        for name, arr in ((("feature"), arrays[0]), (("left"), arrays[2]), (("right"), arrays[3])):
            if arr.dtype.kind not in "iu":
                raise ValueError(
                    f"tree {i}: node array {name!r} must be an integer array, got dtype {arr.dtype}"
                )
        for name, arr in ((("threshold"), arrays[1]), (("value"), arrays[4])):
            if arr.dtype.kind not in "fiu":
                raise ValueError(
                    f"tree {i}: node array {name!r} must be numeric, got dtype {arr.dtype}"
                )
        return (
            arrays[0].astype(np.int64, copy=False),
            arrays[1].astype(np.float64, copy=False),
            arrays[2].astype(np.int64, copy=False),
            arrays[3].astype(np.int64, copy=False),
            arrays[4].astype(np.float64, copy=False),
        )

    # -- introspection ------------------------------------------------------
    @property
    def n_trees(self) -> int:
        """Number of trees flattened into the table."""
        return int(self.roots.size)

    @property
    def n_nodes(self) -> int:
        """Total number of nodes across all trees."""
        return int(self.feature.size)

    # -- walker kernel (arbitrary feature matrices) ---------------------------
    def _check_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) features, got shape {X.shape}")
        return X

    def apply_all(self, X: np.ndarray) -> np.ndarray:
        """Global leaf index each sample lands in, per tree: ``(n_trees, n)``."""
        X = self._check_X(X)
        n, d = X.shape
        Xr = np.ascontiguousarray(X).reshape(-1)
        # One cursor per (tree, sample) pair; cursor k belongs to sample
        # k % n and starts at tree (k // n)'s root.
        node = np.repeat(self.roots, n)
        xbase = np.tile(np.arange(n, dtype=np.int64) * d, self.n_trees)
        total = node.size
        feature, threshold, children = self._walk_feature, self._walk_threshold, self._children
        # Phase 1 — full-width descent with self-looping leaves: no index
        # bookkeeping, every op contiguous.  Periodically check how many
        # cursors are still on internal nodes and bail out to the compacted
        # phase once most have settled (a few deep branches should not force
        # full-width levels).
        level = 0
        while level < self.max_depth:
            x = Xr[xbase + feature[node]]
            go_right = x > threshold[node]
            node = children[(node << 1) + go_right]
            level += 1
            if level % 4 == 0 and np.count_nonzero(self.feature[node] >= 0) < total >> 2:
                break
        # Phase 2 — compacted active set for the stragglers.
        active = np.flatnonzero(self.feature[node] >= 0)
        cur = node[active]
        xb = xbase[active]
        while cur.size:
            x = Xr[xb + feature[cur]]
            go_right = x > threshold[cur]
            cur = children[(cur << 1) + go_right]
            settled = self.feature[cur] < 0
            if settled.any():
                node[active[settled]] = cur[settled]
                keep = ~settled
                active, cur, xb = active[keep], cur[keep], xb[keep]
        return node.reshape(self.n_trees, n)

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions as an ``(n_trees, n_samples)`` matrix."""
        return self.value[self.apply_all(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Across-tree mean prediction, shape ``(n_samples,)``."""
        return self.predict_all(X).mean(axis=0)

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Across-tree mean and standard deviation of the prediction."""
        preds = self.predict_all(X)
        return preds.mean(axis=0), preds.std(axis=0)

    # -- bitset kernel (static pre-indexed pools) ------------------------------
    def predict_all_indexed(self, index: "PoolIndex") -> np.ndarray:
        """Per-tree predictions over a pre-indexed static pool: ``(n_trees, n)``.

        Numerically identical to ``predict_all(index.X)`` but evaluated with
        byte-wise bitset arithmetic over the pool index instead of per-sample
        gathers.
        """
        if index.n_features != self.n_features:
            raise ValueError(
                f"pool index has {index.n_features} features, forest expects {self.n_features}"
            )
        n = index.n_samples
        T = self.n_trees
        if n == 0:
            return np.empty((T, 0), dtype=np.float64)
        t_start = time.perf_counter()

        # Leaf bookkeeping: per-tree local leaf ids and their values.
        leaves = np.flatnonzero(self.feature < 0)
        tree_of = np.searchsorted(self.roots, leaves, side="right") - 1
        counts = np.bincount(tree_of, minlength=T)
        local = np.arange(leaves.size) - np.concatenate(([0], np.cumsum(counts)))[tree_of]
        max_leaves = int(counts.max())

        lid = self._leaf_ids_indexed(index, leaves, tree_of, local, counts)

        # Leaf-value table addressed by tree-offset local leaf id.
        lut = np.zeros(T * max_leaves, dtype=np.float64)
        lut[tree_of * max_leaves + local] = self.value[leaves]
        lid_offset = (np.arange(T, dtype=np.uint32) * np.uint32(max_leaves))[:, None]
        out = lut[lid + lid_offset]
        index.kernel_seconds += time.perf_counter() - t_start
        return out

    def _leaf_ids_indexed(
        self,
        index: "PoolIndex",
        leaves: np.ndarray,
        tree_of: np.ndarray,
        local: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Per-tree local leaf id of every pool sample: ``(n_trees, n)`` uint32."""
        n = index.n_samples
        T = self.n_trees
        P, cond = index.condition_rows(self.feature, self.threshold)
        left, right = self.left, self.right

        # Padded (tree, slot) gather tables per leaf-id bit plane.
        n_bits = max(1, int(np.ceil(np.log2(max(int(counts.max()), 2)))))
        zero_row = self.n_nodes  # sentinel all-zero bitset row
        bit_gather: List[np.ndarray] = []
        for b in range(n_bits):
            sel = ((local >> b) & 1) == 1
            sub, sub_tree = leaves[sel], tree_of[sel]
            cnt = np.bincount(sub_tree, minlength=T)
            mat = np.full((T, max(1, int(cnt.max()))), zero_row, dtype=np.int64)
            pos = np.concatenate(([0], np.cumsum(cnt)))
            slot = np.arange(sub.size) - pos[sub_tree]
            mat[sub_tree, slot] = sub
            bit_gather.append(mat)

        lid = np.zeros((T, n), dtype=np.uint32)
        chunk = index.chunk
        for c0 in range(0, n, chunk):
            c1 = min(c0 + chunk, n)
            cb = (c1 + 7) // 8 - c0 // 8
            Pc = np.ascontiguousarray(P[:, c0 // 8 : c0 // 8 + cb])
            # Member bitset per node, derived parent → children level by
            # level: left = parent AND condition, right = parent XOR left.
            M = np.empty((self.n_nodes + 1, cb), dtype=np.uint8)
            M[self.roots] = 0xFF
            M[zero_row] = 0
            for par in self._levels:
                pm = M[par]
                lm = pm & Pc[cond[par]]
                M[left[par]] = lm
                M[right[par]] = pm ^ lm
            # Compose per-sample local leaf ids from the leaf-membership
            # bit planes (leaves of one tree are disjoint, so OR-reducing
            # the padded row groups is exact).
            for b in range(n_bits):
                plane = np.bitwise_or.reduce(M[bit_gather[b]], axis=1)
                bits = np.unpackbits(plane, axis=1)[:, : c1 - c0]
                lid[:, c0:c1] += bits.astype(np.uint32) << b
        return lid

    def predict_indexed(self, index: "PoolIndex") -> np.ndarray:
        """Across-tree mean prediction over a pre-indexed pool."""
        return self.predict_all_indexed(index).mean(axis=0)

    def predict_with_std_indexed(self, index: "PoolIndex") -> Tuple[np.ndarray, np.ndarray]:
        """Across-tree mean and standard deviation over a pre-indexed pool."""
        preds = self.predict_all_indexed(index)
        return preds.mean(axis=0), preds.std(axis=0)


class PoolIndex:
    """Packed-bitset index of a static feature matrix (the prediction pool).

    Built once per active-learning run.  For every feature column with a
    small value alphabet (ordinals, booleans, one-hot blocks — the typical
    design-space case) it stores one packed bitset per distinct value ``v``:
    bit ``i`` of row ``v`` says whether ``X[i, col] <= v``.  A tree split
    ``x <= t`` then resolves to the row of the largest distinct value
    ``<= t`` — the exact same float comparison outcome, precomputed.  Wide
    (e.g. continuous) columns keep their raw values and pack per-threshold
    rows on demand at prediction time.
    """

    def __init__(
        self,
        X: np.ndarray,
        max_dense_cardinality: int = DENSE_COLUMN_CARDINALITY,
        chunk: int = POOL_CHUNK,
    ) -> None:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if chunk % 8 != 0 or chunk <= 0:
            raise ValueError("chunk must be a positive multiple of 8")
        self.X = X
        self.n_samples, self.n_features = X.shape
        self.chunk = int(chunk)
        # Cumulative kernel wall time; feeds the per-iteration "bitset"
        # timing counter.
        self.kernel_seconds = 0.0
        n_bytes = (self.n_samples + 7) // 8
        rows: List[np.ndarray] = [np.zeros((1, n_bytes), dtype=np.uint8)]  # all-false row 0
        self._uniques: List[Optional[np.ndarray]] = []
        self._offsets = np.zeros(self.n_features, dtype=np.int64)
        offset = 1
        for j in range(self.n_features):
            col = X[:, j]
            uniq = np.unique(col)
            if uniq.size <= max_dense_cardinality:
                rows.append(np.packbits(col[None, :] <= uniq[:, None], axis=1))
                self._uniques.append(uniq)
                self._offsets[j] = offset
                offset += uniq.size
            else:
                self._uniques.append(None)  # wide column: pack on demand
                self._offsets[j] = -1
        self._P = np.vstack(rows) if len(rows) > 1 else rows[0]

    @property
    def n_bytes(self) -> int:
        """Packed bitset row width in bytes."""
        return (self.n_samples + 7) // 8

    def condition_rows(
        self, feature: np.ndarray, threshold: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bitset matrix and per-node row ids for a forest's split conditions.

        Returns ``(P, cond)`` where ``P[cond[i]]`` is the packed bitset of
        ``X[:, feature[i]] <= threshold[i]`` for every internal node ``i``
        (row 0 is all-false, used for thresholds below every pool value).
        """
        cond = np.zeros(feature.size, dtype=np.int64)
        extra: List[np.ndarray] = []
        n_base = self._P.shape[0]
        for j in range(self.n_features):
            nodes_j = np.flatnonzero(feature == j)
            if nodes_j.size == 0:
                continue
            uniq = self._uniques[j]
            if uniq is not None:
                v = np.searchsorted(uniq, threshold[nodes_j], side="right") - 1
                cond[nodes_j] = np.where(v < 0, 0, self._offsets[j] + v)
            else:
                # Wide column: pack one row per distinct threshold on demand.
                ts, inverse = np.unique(threshold[nodes_j], return_inverse=True)
                packed = np.packbits(self.X[:, j][None, :] <= ts[:, None], axis=1)
                cond[nodes_j] = n_base + len(extra) + inverse
                extra.extend(packed)
        if extra:
            return np.vstack([self._P, np.asarray(extra)]), cond
        return self._P, cond


__all__ = ["FlatForest", "PoolIndex"]
