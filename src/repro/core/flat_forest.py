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

* a **bitset kernel** (:meth:`FlatForest.predict_indexed`) for the static
  configuration pool of an active-learning run.  A :class:`PoolIndex` is
  built once per run: per feature column, packed "column ≤ value" prefix
  bitsets over the pool (bit ``i`` of byte ``j`` is sample ``8j + i``).
  The kernel streams the pool in chunks of ``PoolIndex.chunk`` samples,
  each in three steps over buffers sized for one chunk:

  - *Levels.*  Every node's member bitset comes from its parent's: left =
    parent AND condition, right = parent XOR left.  The forest lays its
    node rows out once, at construction, so that each depth's left
    children and right children are two contiguous blocks in parent
    order; a depth is two row gathers and two ufuncs written straight into
    the blocks.
  - *Leaf ids.*  Leaf ids are depth-first, so each subtree's leaves hold a
    contiguous id range, and bit plane ``b`` of a tree (the samples whose
    leaf id has bit ``b`` set) is the OR of the maximal subtrees whose ids
    all have it.  Eight planes fill the eight bytes of one 64-bit word per
    (tree, pool byte); an 8x8 bit-matrix transpose (three mask-shift-xor
    rounds) turns the word into the id bytes of its eight samples.  A tree
    with more than 256 leaves takes one word per id byte.
  - *Reduction.*  The chunk's ``(n_trees, c)`` leaf values are gathered
    from a per-forest value table and reduced to their across-tree mean
    (and std) straight into the output.

  Work per node is ``chunk / 8`` bytes of streaming arithmetic — no
  per-sample random gathers — which is what makes surrogate inference over
  20k–1.8M-configuration pools hardware-speed.  The index holds pool-side
  state only: every call runs the kernel over every tree of the forest it
  is given, since each surrogate refit regrows all trees from scratch.

Numerics are bit-identical to traversing each tree separately: both kernels
resolve every sample to exactly the same leaf (the bitset comparisons reduce
to the same float comparisons against pool values) and gather the same leaf
values, only the batching changes.  NumPy sums axis 0 of a C-contiguous
block tree by tree, as it sums the whole ``(n_trees, n)`` matrix, so the
per-chunk mean and std are the full-matrix ones bit for bit.
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

#: Pool samples per chunk in the bitset kernel (512-byte bitset rows).  The
#: kernel's working buffers hold one chunk and are reused by every chunk.
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
    # children with self-looping leaves and leaf-safe feature/threshold for
    # the full-width walker phase; the bitset kernel's level layout, leaf-id
    # bit-plane gathers and leaf-value table (see ``_bitset_layout``).
    _children: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _walk_feature: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _walk_threshold: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _levels: tuple = field(repr=False, default=())
    _planes: tuple = field(repr=False, default=())
    _lut: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _lut_base: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
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
        levels, planes, lut, lut_base = cls._bitset_layout(feature, left, right, value, roots)
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
            _levels=levels,
            _planes=planes,
            _lut=lut,
            _lut_base=lut_base,
            max_depth=len(levels),
        )

    @staticmethod
    def _bitset_layout(
        feature: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
    ) -> Tuple[tuple, tuple, np.ndarray, np.ndarray]:
        """The bitset kernel's per-forest tables (see :meth:`_predict_indexed`).

        The kernel's member-bitset matrix has one row per node: the roots
        first, then per depth the left children of that depth's internal
        nodes followed by their right children, both in parent order, and
        an all-zero sentinel row last.  Returns ``(levels, planes, lut,
        lut_base)``:

        * ``levels`` — per depth ``(parent_rows, parent_nodes, start)``: the
          parents' rows, their node ids (for the split conditions) and the
          first row of their children;
        * ``planes`` — per leaf-id bit, an ``(n_trees, width)`` table of the
          rows whose union is the tree's bit plane, padded with the
          sentinel row;
        * ``lut`` / ``lut_base`` — leaf values at ``lut_base[tree] + id``.
        """
        n_nodes, T = feature.size, roots.size
        row_of = np.empty(n_nodes, dtype=np.intp)
        row_of[roots] = np.arange(T)
        parent = np.full(n_nodes, n_nodes, dtype=np.intp)
        levels = []
        frontier, start = roots, T
        while True:
            par = frontier[feature[frontier] >= 0]
            if par.size == 0:
                break
            k = par.size
            lc, rc = left[par], right[par]
            row_of[lc] = np.arange(start, start + k)
            row_of[rc] = np.arange(start + k, start + 2 * k)
            parent[lc] = parent[rc] = par
            levels.append((row_of[par], par, start))
            frontier = np.concatenate([lc, rc])
            start += 2 * k

        # Local leaf ids in depth-first order: the leaves of every subtree
        # hold the contiguous ids lo..last.
        n_leaves = (feature < 0).astype(np.intp)
        for _, par, _ in reversed(levels):
            n_leaves[par] = n_leaves[left[par]] + n_leaves[right[par]]
        lo = np.zeros(n_nodes, dtype=np.intp)
        for _, par, _ in levels:
            lo[left[par]] = lo[par]
            lo[right[par]] = lo[par] + n_leaves[left[par]]
        last = lo + n_leaves - 1
        max_leaves = int(n_leaves[roots].max())
        # Bit plane b is the union of the leaves whose id has bit b set.  A
        # subtree whose ids all have bit b set stands in for its leaves, so
        # a plane ORs only the maximal such subtrees: about half as many
        # rows as leaf-by-leaf.
        planes = []
        for b in range(max(1, (max_leaves - 1).bit_length())):
            in_run = (((lo >> b) & 1) == 1) & ((lo >> (b + 1)) == (last >> (b + 1)))
            cover = np.flatnonzero(in_run & ~np.append(in_run, False)[parent])
            tree_of = np.searchsorted(roots, cover, side="right") - 1
            cnt = np.bincount(tree_of, minlength=T)
            table = np.full((T, max(1, int(cnt.max()))), n_nodes, dtype=np.intp)
            slot = np.arange(cover.size) - np.concatenate(([0], np.cumsum(cnt)))[tree_of]
            table[tree_of, slot] = row_of[cover]
            planes.append(table)
        leaves = np.flatnonzero(feature < 0)
        tree_of = np.searchsorted(roots, leaves, side="right") - 1
        lut = np.zeros(T * max_leaves, dtype=np.float64)
        lut[tree_of * max_leaves + lo[leaves]] = value[leaves]
        lut_base = np.arange(T, dtype=np.intp) * max_leaves
        return tuple(levels), tuple(planes), lut, lut_base

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
        return self._predict_indexed(index, None)[0]

    def predict_indexed(self, index: "PoolIndex") -> np.ndarray:
        """Across-tree mean prediction over a pre-indexed pool."""
        return self._predict_indexed(index, "mean")[0]

    def predict_with_std_indexed(self, index: "PoolIndex") -> Tuple[np.ndarray, np.ndarray]:
        """Across-tree mean and standard deviation over a pre-indexed pool."""
        mean, std = self._predict_indexed(index, "std")
        return mean, std

    def _predict_indexed(self, index: "PoolIndex", reduce: Optional[str]) -> Tuple[np.ndarray, ...]:
        """The bitset kernel: one pass over the pool, chunk by chunk.

        ``reduce`` is ``None`` for the ``(n_trees, n)`` per-tree matrix,
        ``"mean"`` for the across-tree mean, ``"std"`` for mean and std.
        """
        if index.n_features != self.n_features:
            raise ValueError(
                f"pool index has {index.n_features} features, forest expects {self.n_features}"
            )
        n, T = index.n_samples, self.n_trees
        if reduce is None:
            out: Tuple[np.ndarray, ...] = (np.empty((T, n), dtype=np.float64),)
        else:
            out = tuple(np.empty(n, dtype=np.float64) for _ in range(1 if reduce == "mean" else 2))
        if n == 0:
            return out
        t_start = time.perf_counter()
        P, cond = index.condition_rows(self.feature, self.threshold)
        levels = [(rows, cond[nodes], start) for rows, nodes, start in self._levels]
        n_rows = self.n_nodes + 1  # + the all-zero sentinel row
        n_groups = (len(self._planes) + 7) // 8

        # Buffers for the widest chunk, reused by every chunk.
        width = (min(index.chunk, n) + 7) // 8
        k_max = max((rows.size for rows, _, _ in levels), default=0)
        member = np.empty(n_rows * width, dtype=np.uint8)
        parent = np.empty(k_max * width, dtype=np.uint8)
        condition = np.empty(k_max * width, dtype=np.uint8)
        gathered = np.empty(max(t.size for t in self._planes) * width, dtype=np.uint8)
        plane = np.empty(T * width, dtype=np.uint8)
        planes = np.zeros((n_groups, T, width, 8), dtype=np.uint8)
        words = planes.view(_WORD)[..., 0]
        ids = np.empty((n_groups, T, width), dtype=_WORD)
        scratch = np.empty((n_groups, T, width), dtype=_WORD)
        leaf_index = np.empty(T * width * 8, dtype=np.intp)
        values = np.empty(T * width * 8, dtype=np.float64)

        for c0 in range(0, n, index.chunk):
            c1 = min(c0 + index.chunk, n)
            cb = (c1 + 7) // 8 - c0 // 8
            Pc = np.ascontiguousarray(P[:, c0 // 8 : c0 // 8 + cb])
            # Member bitset per node, level by level: left children =
            # parent AND condition, right children = parent XOR left, each
            # written straight into its contiguous block.  (Every index is
            # in range; mode="clip" lets `take` write `out` unbuffered.)
            M = member[: n_rows * cb].reshape(n_rows, cb)
            M[:T] = 0xFF
            M[-1] = 0
            for rows, crows, start in levels:
                k = rows.size
                pm = parent[: k * cb].reshape(k, cb)
                cm = condition[: k * cb].reshape(k, cb)
                np.take(M, rows, axis=0, out=pm, mode="clip")
                np.take(Pc, crows, axis=0, out=cm, mode="clip")
                lm = M[start : start + k]
                np.bitwise_and(pm, cm, out=lm)
                np.bitwise_xor(pm, lm, out=M[start + k : start + 2 * k])
            # Leaf-id bit plane b of every tree: the OR of its table's rows,
            # reduced into a contiguous plane (a reduction straight into the
            # strided bytes is several times slower), then copied to byte
            # b % 8 of the tree's words of id byte b // 8.
            for b, table in enumerate(self._planes):
                G = gathered[: table.size * cb].reshape(T, table.shape[1], cb)
                np.take(M, table, axis=0, out=G, mode="clip")
                pb = plane[: T * cb].reshape(T, cb)
                np.bitwise_or.reduce(G, axis=1, out=pb)
                planes[b >> 3, :, :cb, b & 7] = pb
            # Transposed, byte i of a word is the id byte of its i-th sample.
            _transpose_bit_matrices(words[:, :, :cb], ids[:, :, :cb], scratch[:, :, :cb])
            id_bytes = ids[:, :, :cb].view(np.uint8)
            L = leaf_index[: T * cb * 8].reshape(T, cb * 8)
            np.add(id_bytes[0], self._lut_base[:, None], out=L)
            for g in range(1, n_groups):
                L += id_bytes[g].astype(np.intp) << (8 * g)
            V = values[: T * cb * 8].reshape(T, cb * 8)
            np.take(self._lut, L, out=V, mode="clip")

            c = c1 - c0
            if reduce is None:
                out[0][:, c0:c1] = V[:, :c]
                continue
            # numpy sums axis 0 of a C-contiguous block row by row, as it
            # does the whole (T, n) matrix, except that a lone column is
            # summed pairwise: reduce at least two columns unless the pool
            # is one sample.
            block = V[:, : c if n == 1 else max(c, 2)]
            out[0][c0:c1] = block.mean(axis=0)[:c]
            if reduce == "std":
                out[1][c0:c1] = block.std(axis=0)[:c]
        index.kernel_seconds += time.perf_counter() - t_start
        return out


#: Little-endian 64-bit word: byte ``i`` of a word is bits ``8i..8i+7``.
_WORD = np.dtype("<u8")

#: (shift, mask) of the three swap rounds of an 8x8 bit-matrix transpose.
_TRANSPOSE_ROUNDS = (
    (7, np.uint64(0x00AA00AA00AA00AA)),
    (14, np.uint64(0x0000CCCC0000CCCC)),
    (28, np.uint64(0x00000000F0F0F0F0)),
)


def _transpose_bit_matrices(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Transpose every word of ``x`` as an 8x8 bit matrix into ``out``.

    Bit ``j`` of byte ``i`` of a result word is bit ``i`` of byte ``j`` of
    the source word: with bit plane ``b`` in byte ``b``, byte ``i`` becomes
    the 8-bit value whose bit ``b`` is sample ``i``'s bit in plane ``b``.
    """
    src = x
    for shift, mask in _TRANSPOSE_ROUNDS:
        np.right_shift(src, shift, out=scratch)
        np.bitwise_xor(scratch, src, out=scratch)
        np.bitwise_and(scratch, mask, out=scratch)
        np.bitwise_xor(src, scratch, out=out)
        np.left_shift(scratch, shift, out=scratch)
        np.bitwise_xor(out, scratch, out=out)
        src = out


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
                rows.append(np.packbits(col[None, :] <= uniq[:, None], axis=1, bitorder="little"))
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
                packed = np.packbits(self.X[:, j][None, :] <= ts[:, None], axis=1, bitorder="little")
                cond[nodes_j] = n_base + len(extra) + inverse
                extra.extend(packed)
        if extra:
            return np.vstack([self._P, np.asarray(extra)]), cond
        return self._P, cond


__all__ = ["FlatForest", "PoolIndex"]
