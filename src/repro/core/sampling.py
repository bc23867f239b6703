"""Samplers producing the configuration pools and bootstrap designs.

The paper bootstraps HyperMapper from "a small number of randomly drawn
samples in the parameter space" and, because exhaustive evaluation is
impossible, also works with a finite configuration *pool* drawn from the full
space over which the surrogate predicts.  Besides plain uniform random
sampling we also provide grid sampling (the "expert brute-force grid search"
baseline used by the ElasticFusion developers).

:class:`EncodedPool` pairs a pool with its one-time numeric encoding so the
active-learning loop never re-encodes an unchanged pool.  On a finite space
the pool is lazy whether it is the whole enumeration or a random sample: a
rank array (:meth:`~repro.core.space.DesignSpace.sample_ranks`) viewed
through :class:`~repro.core.space.EnumeratedConfigs`, encoded straight from
its value-index columns and searched by rank, with no ``Configuration``
object and no config→row dictionary per pool member.  Only pools over a
continuous parameter, and the rare pool that must hold an include
configuration its space's product does not, are configuration lists.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flat_forest import PoolIndex
from repro.core.space import Configuration, DesignSpace, EnumeratedConfigs
from repro.core.tree_builder import BinMapper
from repro.utils.rng import RandomState, as_generator

#: Spaces up to this many configurations are fully enumerated into the pool
#: (columnar-ly), matching the paper's "predict the performance over the
#: entire parameter space" at crowd scale (~1.8M KFusion configurations).
FULL_ENUMERATION_CAP = 2_000_000


class Sampler(ABC):
    """Base class for configuration samplers."""

    def __init__(self, space: DesignSpace) -> None:
        self.space = space

    @abstractmethod
    def sample(self, n: int, rng: RandomState = None) -> List[Configuration]:
        """Draw ``n`` configurations."""


class RandomSampler(Sampler):
    """Uniform random sampling of distinct configurations (paper default)."""

    def __init__(self, space: DesignSpace, distinct: bool = True) -> None:
        super().__init__(space)
        self.distinct = distinct

    def sample(self, n: int, rng: RandomState = None) -> List[Configuration]:
        return self.space.sample(n, rng=rng, distinct=self.distinct)


class GridSampler(Sampler):
    """Coarse grid sampling (the human-expert brute-force baseline).

    ``levels`` limits how many values per parameter are considered: experts
    hand-tuning ElasticFusion "used a brute force grid search to tune the
    parameters", which is only tractable on a coarse grid.  The grid takes
    evenly spaced values from each parameter's value list.
    """

    def __init__(self, space: DesignSpace, levels: int = 3) -> None:
        super().__init__(space)
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.levels = int(levels)

    def grid_values(self) -> List[List[object]]:
        """Per-parameter value subsets making up the grid."""
        out: List[List[object]] = []
        for p in self.space.parameters:
            values = p.values()
            if len(values) <= self.levels:
                out.append(list(values))
            else:
                idx = np.linspace(0, len(values) - 1, self.levels).round().astype(int)
                out.append([values[i] for i in sorted(set(idx.tolist()))])
        return out

    def full_grid(self, limit: Optional[int] = None) -> List[Configuration]:
        """Enumerate the full coarse grid (optionally capped at ``limit``)."""
        import itertools

        names = self.space.parameter_names
        configs: List[Configuration] = []
        for combo in itertools.product(*self.grid_values()):
            configs.append(Configuration(names, list(combo)))
            if limit is not None and len(configs) >= limit:
                break
        return configs

    def sample(self, n: int, rng: RandomState = None) -> List[Configuration]:
        grid = self.full_grid()
        if n >= len(grid):
            return grid
        gen = as_generator(rng)
        idx = gen.choice(len(grid), size=n, replace=False)
        return [grid[int(i)] for i in idx]


def _should_enumerate(space: DesignSpace, pool_size: Optional[int]) -> bool:
    """Whether the pool should be the fully enumerated space."""
    return (
        space.is_enumerable
        and (pool_size is None or space.cardinality <= pool_size)
        and space.cardinality <= FULL_ENUMERATION_CAP
    )


def build_pool(
    space: DesignSpace,
    pool_size: Optional[int],
    rng: RandomState = None,
    include: Sequence[Configuration] = (),
) -> List[Configuration]:
    """Build the prediction pool the surrogate sweeps over.

    If the space is small enough (or ``pool_size`` is ``None`` and the space is
    enumerable within a safe bound) the pool is the full space, matching the
    paper's "predict the performance over the entire parameter space".
    Otherwise a uniform random pool of ``pool_size`` distinct configurations is
    drawn, and ``include`` configurations (e.g. the default) are guaranteed to
    be present.
    """
    if _should_enumerate(space, pool_size):
        pool = space.enumerate()
    else:
        if pool_size is None:
            pool_size = 20_000
        pool = space.sample(pool_size, rng=rng, distinct=True)
    existing = set(pool)
    for c in include:
        if c not in existing:
            pool.append(c)
            existing.add(c)
    return pool


@dataclass
class EncodedPool:
    """A configuration pool together with its one-time numeric encoding.

    The pool the surrogate predicts over is static for a whole HyperMapper
    run, so its feature matrix is computed exactly once and reused every
    active-learning iteration.  Because every evaluated configuration is also
    a pool member, fitting gathers training rows from the cached matrices by
    pool row (:meth:`training_rows`) instead of re-encoding the history; the
    search engine looks each record's row up once, when the record enters
    the history.

    Two further per-run caches hang off the pool: the packed-bitset
    :attr:`bitset_index` feeding the flat forest's inference kernel, and the
    :attr:`bin_mapper`/:attr:`binned` quantization feeding the histogram
    *fitting* engine — every refit of every tree across all iterations bins
    against the same ≤255-bin ``uint8`` matrix derived here exactly once.

    ``configs`` may be a lazy :class:`~repro.core.space.EnumeratedConfigs`
    view (the whole enumeration or a sampled rank array), in which case
    membership/row lookups rank the configuration and no config→row
    dictionary is built at all; the dictionary exists only for explicit
    configuration lists.
    """

    configs: Sequence[Configuration]
    X: np.ndarray
    _index: Dict[Configuration, int] = field(repr=False, default_factory=dict)
    _extra_rows: Dict[Configuration, np.ndarray] = field(repr=False, default_factory=dict)
    _extra_binned: Dict[Configuration, np.ndarray] = field(repr=False, default_factory=dict)
    _bitset_index: Optional[PoolIndex] = field(repr=False, default=None)
    _bin_mapper: Optional[BinMapper] = field(repr=False, default=None)
    _binned: Optional[np.ndarray] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.X.shape[0] != len(self.configs):
            raise ValueError("X must have one row per pool configuration")
        self._lazy = self.configs if isinstance(self.configs, EnumeratedConfigs) else None
        if self._lazy is None and not self._index:
            self._index = {c: i for i, c in enumerate(self.configs)}

    def __len__(self) -> int:
        return len(self.configs)

    def __contains__(self, config: Configuration) -> bool:
        return self._position(config) is not None

    def _position(self, config: Configuration) -> Optional[int]:
        """Pool row of ``config`` (``None`` when it is not a member)."""
        if self._lazy is not None:
            return self._lazy.index_of(config)
        return self._index.get(config)

    def position(self, config: Configuration) -> Optional[int]:
        """Pool rank of ``config``, or ``None`` when it is not a member.

        For a fully enumerated pool this is the closed-form mixed-radix rank
        (no dictionary at all); for a sampled pool of a finite space, that
        rank found by binary search in the pool's sorted ranks; for a
        configuration list, one dict lookup.  The search engine keeps its
        evaluated/claimed sets as these integer ranks so per-iteration
        membership filtering never touches configuration objects, and looks
        each history record's row up once.
        """
        return self._position(config)

    @property
    def bitset_index(self) -> PoolIndex:
        """Packed-bitset index of the pool, built lazily and cached.

        Feeds the flat forest's bitset kernel: per-iteration surrogate
        prediction over the pool becomes byte-wise bitset arithmetic instead
        of per-sample tree traversal.
        """
        if self._bitset_index is None:
            self._bitset_index = PoolIndex(self.X)
        return self._bitset_index

    @property
    def bitset_kernel_seconds(self) -> float:
        """Cumulative bitset-kernel wall time, without forcing the index.

        ``0.0`` until :attr:`bitset_index` has been materialized — reading
        this never triggers the (expensive) index build, so callers can
        difference it around a prediction step to attribute kernel time.
        """
        return 0.0 if self._bitset_index is None else float(self._bitset_index.kernel_seconds)

    @property
    def bin_mapper(self) -> BinMapper:
        """Per-run feature quantization, derived from the pool matrix once."""
        if self._bin_mapper is None:
            self._bin_mapper = BinMapper().fit(self.X)
        return self._bin_mapper

    @property
    def binned(self) -> np.ndarray:
        """``uint8`` binned pool matrix (lazy, cached; see :attr:`bin_mapper`)."""
        if self._binned is None:
            self._binned = self.bin_mapper.transform(self.X)
        return self._binned

    def training_rows(
        self, space: DesignSpace, configs: Sequence[Configuration], rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encoded and binned feature rows for ``configs``: one ``take`` each.

        ``rows[i]`` is the pool row of ``configs[i]`` (:meth:`position`), or
        ``-1`` for a configuration outside the pool (e.g. a warm-start
        history that was never folded into the pool); only those are read
        from ``configs``, encoded and quantized once, and memoized.
        """
        rows = np.asarray(rows, dtype=np.intp)
        X = self.X.take(rows, axis=0)
        binned = self.binned.take(rows, axis=0)
        outside = np.flatnonzero(rows < 0).tolist()
        missing = list(dict.fromkeys(
            configs[i] for i in outside if configs[i] not in self._extra_rows
        ))
        if missing:
            encoded = space.encode(missing)
            quantized = self.bin_mapper.transform(encoded)
            for c, row, brow in zip(missing, encoded, quantized):
                self._extra_rows[c] = row
                self._extra_binned[c] = brow
        for i in outside:
            X[i] = self._extra_rows[configs[i]]
            binned[i] = self._extra_binned[configs[i]]
        return X, binned


def build_encoded_pool(
    space: DesignSpace,
    pool_size: Optional[int],
    rng: RandomState = None,
    include: Sequence[Configuration] = (),
) -> EncodedPool:
    """:func:`build_pool` plus a single up-front encoding of the result.

    A finite space never materializes its pool.  The whole enumeration
    stays a lazy :class:`~repro.core.space.EnumeratedConfigs` view encoded
    straight from the cartesian-product index grids; a sampled pool is the
    rank array of :meth:`~repro.core.space.DesignSpace.sample_ranks` (the
    draws :func:`build_pool` makes), with the absent ``include``
    configurations appended by rank in include order, and is encoded from
    its value-index columns.  An include the product does not hold as it is
    (outside the space, or an equal value of another type or repr) keeps
    the configuration-list pool of :func:`build_pool`.
    """
    if not space.is_enumerable:
        configs = build_pool(space, pool_size, rng=rng, include=include)
        return EncodedPool(configs=configs, X=space.encode(configs))
    if _should_enumerate(space, pool_size):
        ranks = None
    else:
        ranks = space.sample_ranks(20_000 if pool_size is None else pool_size, rng=rng)
    view = EnumeratedConfigs(space, ranks=ranks)
    absent = _absent_includes(space, view, include)
    if _held_as_is(space, absent):
        if ranks is None:
            return EncodedPool(configs=view, X=space.encode_enumerated())
        ranks = np.concatenate([ranks, np.array([rank for _, rank in absent], dtype=ranks.dtype)])
        return EncodedPool(
            configs=EnumeratedConfigs(space, ranks=ranks),
            X=space.encode_index_columns(space.rank_columns(ranks)),
        )
    # Rare fallback: an include the product does not hold as it is (e.g. a
    # warm-start history from another space variant).
    pool = list(view) + [c for c, _ in absent]
    return EncodedPool(configs=pool, X=space.encode(pool))


def _absent_includes(
    space: DesignSpace, view: EnumeratedConfigs, include: Sequence[Configuration]
) -> List[Tuple[Configuration, Optional[int]]]:
    """``include`` entries missing from ``view``, in order and each once.

    Each comes with its enumeration rank (``None`` outside the product):
    one rank lookup per entry, and equal configurations share a rank.
    """
    absent: List[Tuple[Configuration, Optional[int]]] = []
    seen = set()
    for c in include:
        rank = space.rank_of(c)
        key = c if rank is None else (rank,)
        if key in seen or (rank is not None and view.row_of_rank(rank) is not None):
            continue
        seen.add(key)
        absent.append((c, rank))
    return absent


def _held_as_is(space: DesignSpace, absent: Sequence[Tuple[Configuration, Optional[int]]]) -> bool:
    """Whether the product holds every absent include as it is, to the repr.

    A pool row built from a rank is the product's own configuration, so an
    include equal to it but spelled differently (``64.0`` for ``64``) would
    reach the history in the product's spelling; such includes, like those
    outside the product, keep the configuration-list pool.
    """
    if any(rank is None for _, rank in absent):
        return False
    held = space.configurations_at(np.array([rank for _, rank in absent]))
    names = space.parameter_names
    return all(
        repr(h.values_tuple) == repr(tuple(c[n] for n in names))
        for h, (c, _) in zip(held, absent)
    )


__all__ = [
    "Sampler",
    "RandomSampler",
    "GridSampler",
    "build_pool",
    "EncodedPool",
    "build_encoded_pool",
    "FULL_ENUMERATION_CAP",
]
