"""Design space: an ordered collection of parameters plus encode/decode helpers.

A *configuration* is an assignment of one value to every parameter of the
space.  Configurations are represented as :class:`Configuration`, a thin
immutable mapping that hashes by its value tuple so sets/dicts of
configurations (needed by Algorithm 1's ``P - X_out`` set difference) work out
of the box.

A configuration of a finite space also has an *enumeration rank*: its
position in :meth:`DesignSpace.enumerate`, the mixed-radix number whose
digits are its parameters' value indices (last parameter fastest).
:meth:`DesignSpace.sample_ranks` is the one sampler of finite spaces: it
draws value indices per parameter, combines them into ranks and
de-duplicates the ranks with NumPy, so a 50,000-configuration pool costs a
few array operations instead of 50,000 hashed objects.
:meth:`DesignSpace.sample` materializes its ranks, and
:class:`EnumeratedConfigs` is a lazy view over either the whole
enumeration or a rank array.  Only spaces with a continuous parameter,
which have no ranks, still draw configuration objects one by one.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.parameters import (
    IntegerParameter,
    Parameter,
    RealParameter,
    parameter_from_dict,
)
from repro.utils.rng import RandomState, as_generator


class Configuration(Mapping[str, Any]):
    """Immutable mapping from parameter name to value.

    Hashable (by the ordered tuple of its values) so it can be stored in sets,
    which is how the optimizer computes the set difference between the
    predicted Pareto front and the already-evaluated samples.
    """

    __slots__ = ("_names", "_values", "_hash", "_index")

    # Name→position lookup tables shared by every configuration with the same
    # name tuple (one per design space in practice), so ``__getitem__`` is a
    # dict hit instead of an O(n) ``tuple.index`` scan.
    _INDEX_CACHE: Dict[Tuple[str, ...], Dict[str, int]] = {}

    def __init__(self, names: Sequence[str], values: Sequence[Any]) -> None:
        if len(names) != len(values):
            raise ValueError("names and values must have the same length")
        self._names: Tuple[str, ...] = tuple(names)
        self._values: Tuple[Any, ...] = tuple(values)
        self._hash = hash((self._names, self._values))
        index = Configuration._INDEX_CACHE.get(self._names)
        if index is None:
            index = {n: i for i, n in enumerate(self._names)}
            Configuration._INDEX_CACHE[self._names] = index
        self._index = index

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], order: Optional[Sequence[str]] = None) -> "Configuration":
        """Build a configuration from a mapping, optionally reordering keys."""
        names = list(order) if order is not None else list(d.keys())
        missing = [n for n in names if n not in d]
        if missing:
            raise KeyError(f"missing parameter values: {missing}")
        return cls(names, [d[n] for n in names])

    # Mapping protocol -------------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[self._index[key]]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    # Identity ----------------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._names == other._names and self._values == other._values
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._names, self._values))
        return f"Configuration({inner})"

    # Convenience ---------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Parameter names in space order."""
        return self._names

    @property
    def values_tuple(self) -> Tuple[Any, ...]:
        """Parameter values in space order."""
        return self._values

    def to_dict(self) -> Dict[str, Any]:
        """Plain dict copy."""
        return dict(zip(self._names, self._values))

    def replace(self, **updates: Any) -> "Configuration":
        """Return a copy with some values replaced."""
        d = self.to_dict()
        unknown = [k for k in updates if k not in d]
        if unknown:
            raise KeyError(f"unknown parameters: {unknown}")
        d.update(updates)
        return Configuration(self._names, [d[n] for n in self._names])

    @classmethod
    def batch(
        cls, names: Sequence[str], value_rows: Iterable[Tuple[Any, ...]]
    ) -> List["Configuration"]:
        """Build many configurations sharing one name tuple in one pass.

        The fast path behind columnar enumeration: the name tuple and its
        name→position table are resolved once, then each instance is stamped
        out directly — roughly half the cost of ``Configuration(...)`` per
        row, which matters when materializing 10^5–10^6 pool members.
        """
        names_t = tuple(names)
        index = cls._INDEX_CACHE.get(names_t)
        if index is None:
            index = {n: i for i, n in enumerate(names_t)}
            cls._INDEX_CACHE[names_t] = index
        out: List[Configuration] = []
        for values in value_rows:
            c = object.__new__(cls)
            c._names = names_t
            c._values = values
            c._hash = hash((names_t, values))
            c._index = index
            out.append(c)
        return out


class DesignSpace:
    """An ordered collection of :class:`Parameter` objects.

    Responsibilities:

    * enumerate / sample configurations,
    * validate configurations,
    * encode configurations into the numeric feature matrix used by the
      random-forest surrogate (ordinal parameters keep their value, categorical
      parameters are one-hot encoded),
    * report the total cardinality of the space (the paper reports roughly
      1.8 M configurations for KFusion and 450 K for ElasticFusion).
    """

    def __init__(self, parameters: Sequence[Parameter], name: str = "space") -> None:
        if len(parameters) == 0:
            raise ValueError("a design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in design space: {names}")
        self.name = name
        self._parameters: List[Parameter] = list(parameters)
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}
        self._param_names: Tuple[str, ...] = tuple(p.name for p in parameters)
        self._feature_names: List[str] = []
        self._feature_slices: Dict[str, slice] = {}
        self._encode_luts: Dict[str, Optional[Dict[Any, float]]] = {}
        offset = 0
        for p in self._parameters:
            if p.is_categorical:
                k = int(p.cardinality)
                self._feature_slices[p.name] = slice(offset, offset + k)
                self._feature_names.extend(f"{p.name}=={v!r}" for v in p.values())
                offset += k
            else:
                self._feature_slices[p.name] = slice(offset, offset + 1)
                self._feature_names.append(p.name)
                offset += 1
            self._encode_luts[p.name] = self._build_encode_lut(p)
        self._n_features = offset
        self._ranking: Optional[_Ranking] = None

    @staticmethod
    def _build_encode_lut(p: Parameter) -> Optional[Dict[Any, float]]:
        """Value → encoded-feature lookup table for a discrete parameter.

        Categorical parameters map to their one-hot column index, other
        discrete parameters to their numeric feature value.  Parameters with
        continuous or very large domains — or unhashable values (categorical
        choices may be arbitrary objects) — return ``None`` and are encoded
        via the per-value fallback instead.
        """
        try:
            if p.is_categorical:
                return {v: float(i) for i, v in enumerate(p.values())}
            if p.is_discrete and p.cardinality <= 4096:
                return {v: float(p.to_numeric(v)) for v in p.values()}
        except TypeError:  # unhashable domain values
            return None
        return None

    # -- basic introspection -------------------------------------------------
    @classmethod
    def from_specs(cls, specs: Iterable[dict], name: str = "space") -> "DesignSpace":
        """Build a space from plain-dict parameter specifications."""
        return cls([parameter_from_dict(s) for s in specs], name=name)

    def to_dicts(self) -> List[dict]:
        """Parameter specifications, the exact inverse of :meth:`from_specs`.

        ``DesignSpace.from_specs(space.to_dicts(), name=space.name)`` rebuilds
        an equal space: each entry round-trips through
        :func:`~repro.core.parameters.parameter_from_dict`.
        """
        return [p.to_dict() for p in self._parameters]

    def to_dict(self) -> dict:
        """JSON-facing space description (``name`` + parameter specs)."""
        return {"name": self.name, "parameters": self.to_dicts()}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DesignSpace":
        """Inverse of :meth:`to_dict`."""
        return cls.from_specs(d["parameters"], name=d.get("name", "space"))

    @property
    def parameters(self) -> List[Parameter]:
        """Parameters in declaration order."""
        return list(self._parameters)

    @property
    def parameter_names(self) -> List[str]:
        """Names in declaration order."""
        return [p.name for p in self._parameters]

    @property
    def dimension(self) -> int:
        """Number of parameters."""
        return len(self._parameters)

    @property
    def n_features(self) -> int:
        """Number of numeric features produced by :meth:`encode`."""
        return self._n_features

    @property
    def feature_names(self) -> List[str]:
        """Names of the encoded feature columns."""
        return list(self._feature_names)

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._parameters)

    @property
    def cardinality(self) -> float:
        """Total number of configurations (``inf`` if any parameter is continuous)."""
        total = 1.0
        for p in self._parameters:
            total *= p.cardinality
            if math.isinf(total):
                return math.inf
        return total

    @property
    def is_enumerable(self) -> bool:
        """Whether :meth:`enumerate` terminates."""
        return math.isfinite(self.cardinality)

    # -- configuration construction -------------------------------------------
    def configuration(self, values: Mapping[str, Any]) -> Configuration:
        """Build and validate a configuration from a mapping."""
        missing = [p.name for p in self._parameters if p.name not in values]
        if missing:
            raise KeyError(f"missing values for parameters: {missing}")
        extra = [k for k in values if k not in self._by_name]
        if extra:
            raise KeyError(f"unknown parameters: {extra}")
        ordered = []
        for p in self._parameters:
            ordered.append(p.validate(values[p.name]))
        return Configuration(self.parameter_names, ordered)

    def default_configuration(self) -> Configuration:
        """Configuration holding every parameter's default."""
        return Configuration(self.parameter_names, [p.default for p in self._parameters])

    def validate(self, config: Mapping[str, Any]) -> Configuration:
        """Validate and normalize ``config`` into a :class:`Configuration`."""
        return self.configuration(config)

    def is_valid(self, config: Mapping[str, Any]) -> bool:
        """Whether ``config`` assigns an in-domain value to every parameter."""
        try:
            self.configuration(config)
            return True
        except (KeyError, ValueError):
            return False

    # -- sampling / enumeration ------------------------------------------------
    def sample(self, n: int, rng: RandomState = None, distinct: bool = True, max_attempts: int = 50) -> List[Configuration]:
        """Draw ``n`` uniformly random configurations.

        When ``distinct`` is true (the paper draws *distinct* configurations),
        duplicates are rejected; if the space is smaller than ``n`` every
        configuration is returned.  A finite space materializes
        :meth:`sample_ranks`; a space with a continuous parameter draws
        values and rejects duplicates configuration by configuration, with
        the same generator calls.
        """
        if n < 0:
            raise ValueError("cannot sample a negative number of configurations")
        gen = as_generator(rng)
        if self.is_enumerable:
            ranks = self.sample_ranks(n, gen, distinct=distinct, max_attempts=max_attempts)
            return self.configurations_at(ranks)
        configs: List[Configuration] = []
        seen = set()
        attempts = 0
        while len(configs) < n and attempts < max_attempts:
            batch = max(n - len(configs), 1)
            draws = [p.sample(gen, size=batch) for p in self._parameters]
            for row in zip(*draws):
                c = Configuration(self.parameter_names, list(row))
                if distinct:
                    if c in seen:
                        continue
                    seen.add(c)
                configs.append(c)
                if len(configs) >= n:
                    break
            attempts += 1
        return configs[:n]

    def enumerate(self, limit: Optional[int] = None) -> List[Configuration]:
        """Enumerate every configuration of a finite space (optionally capped).

        Configurations come out in :func:`itertools.product` order (last
        parameter varying fastest) but are generated columnar-ly: the
        cartesian product is laid out as per-parameter NumPy index columns
        and the :class:`Configuration` objects are stamped out in one batch.
        """
        return self._configurations(self.enumeration_columns(limit))

    def enumeration_columns(self, limit: Optional[int] = None) -> List[np.ndarray]:
        """Per-parameter value-*index* columns of the full cartesian product.

        Column ``j`` holds, for every configuration of the product (in
        :meth:`enumerate` order), the index into ``parameters[j].values()`` of
        that configuration's value.  Built with ``np.repeat``/``np.tile``
        instead of a Python product loop, so crowd-scale spaces (the paper's
        ~1.8M-configuration KFusion space) enumerate in milliseconds.
        """
        if not self.is_enumerable:
            raise ValueError(f"design space {self.name!r} is not enumerable")
        shape = [int(p.cardinality) for p in self._parameters]
        total = 1
        for k in shape:
            total *= k
        count = total if limit is None else max(0, min(int(limit), total))
        cols: List[np.ndarray] = []
        inner = total
        for k in shape:
            inner //= k
            block = k * inner
            reps = -(-count // block) if count else 0  # ceil division
            col = np.tile(np.repeat(np.arange(k, dtype=np.int64), inner), reps)[:count]
            cols.append(col)
        return cols

    def encode_enumerated(self, limit: Optional[int] = None) -> np.ndarray:
        """Encoded feature matrix of the full cartesian product.

        Equivalent to ``self.encode(self.enumerate(limit))`` but built
        directly from the columnar index grids — no ``Configuration`` objects,
        no per-value Python mapping — so a full crowd-scale pool encodes in
        one vectorized pass per parameter.
        """
        return self.encode_index_columns(self.enumeration_columns(limit))

    def encode_index_columns(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """Encoded feature matrix of configurations given as value indices.

        ``cols[j][i]`` is the index into ``parameters[j].values()`` of row
        ``i``'s value (:meth:`enumeration_columns`, :meth:`rank_columns`).
        Each parameter maps its column through one lookup: a one-hot column
        offset for categorical parameters, ``lower + index`` for integer
        ones and a per-value table for the rest, so the bytes equal
        :meth:`encode` of the same configurations.
        """
        n = int(cols[0].size) if len(cols) else 0
        X = np.zeros((n, self._n_features), dtype=np.float64)
        if n == 0:
            return X
        for p, idx in zip(self._parameters, cols):
            start = self._feature_slices[p.name].start
            if p.is_categorical:
                X[np.arange(n), start + idx] = 1.0
            elif isinstance(p, IntegerParameter):
                X[:, start] = idx + p.lower
            else:
                numeric = np.array([p.to_numeric(v) for v in p.values()], dtype=np.float64)
                X[:, start] = numeric[idx]
        return X

    # -- enumeration ranks ----------------------------------------------------------
    def _rank_tables(self) -> "_Ranking":
        if self._ranking is None:
            if not self.is_enumerable:
                raise ValueError(f"design space {self.name!r} is not enumerable")
            self._ranking = _Ranking(self._parameters)
        return self._ranking

    def sample_ranks(
        self,
        n: int,
        rng: RandomState = None,
        distinct: bool = True,
        max_attempts: int = 50,
    ) -> np.ndarray:
        """Enumeration ranks of ``n`` uniformly random configurations.

        The rank sampler of finite spaces.  Each attempt draws ``n - kept``
        value indices per parameter, in parameter order
        (:meth:`~repro.core.parameters.Parameter.sample_index`: one
        ``integers`` call each), and combines them into ranks.  With
        ``distinct`` an attempt keeps, in draw order, the first occurrence of
        every rank that no earlier attempt kept, cut to the remaining need;
        these are exactly the draws a duplicate-rejecting loop over
        configuration objects keeps.  A space no larger than ``n`` is
        returned whole, in enumeration order, without drawing.  Ranks are
        ``int64``, or Python ints in an object array when the space has
        more configurations than ``int64`` can count.
        """
        if n < 0:
            raise ValueError("cannot sample a negative number of configurations")
        ranking = self._rank_tables()
        gen = as_generator(rng)
        if distinct and ranking.total <= n:
            return np.arange(ranking.total, dtype=np.int64)
        parts: List[np.ndarray] = []
        n_kept = 0
        for _ in range(max_attempts):
            if n_kept >= n:
                break
            batch = n - n_kept
            ranks = np.zeros(batch, dtype=ranking.dtype)
            for p, stride in zip(self._parameters, ranking.strides):
                ranks += p.sample_index(gen, batch).astype(ranking.dtype) * stride
            if distinct:
                first = np.unique(ranks, return_index=True)[1]
                first.sort()
                ranks = ranks[first]
                if n_kept:
                    kept = np.sort(np.concatenate(parts))
                    at = np.minimum(np.searchsorted(kept, ranks), kept.size - 1)
                    ranks = ranks[kept[at] != ranks]
            ranks = ranks[: n - n_kept]
            parts.append(ranks)
            n_kept += ranks.size
        if not parts:
            return np.empty(0, dtype=ranking.dtype)
        return np.concatenate(parts)

    def rank_of(self, config: Mapping[str, Any]) -> Optional[int]:
        """Enumeration rank of ``config``, or ``None`` outside the product.

        O(d): one value→index lookup per parameter.  A value matches a
        domain value it compares equal to, as a configuration set would.
        """
        ranking = self._rank_tables()
        names = self._param_names
        if isinstance(config, Configuration):
            if config.names != names:
                return None
            values = config.values_tuple
        else:
            try:
                values = tuple(config[n] for n in names)
            except KeyError:
                return None
            if len(config) != len(names):
                return None
        rank = 0
        for v, lookup, stride in zip(values, ranking.lookups, ranking.strides):
            try:
                idx = lookup.get(v)
            except TypeError:  # unhashable value cannot be a member
                return None
            if idx is None:
                return None
            rank += idx * stride
        return rank

    def rank_columns(self, ranks: np.ndarray) -> List[np.ndarray]:
        """Per-parameter value-index columns of the configurations at ``ranks``."""
        ranking = self._rank_tables()
        ranks = np.asarray(ranks)
        return [
            ((ranks // stride) % k).astype(np.int64, copy=False)
            for stride, k in zip(ranking.strides, ranking.radix)
        ]

    def configurations_at(self, ranks: np.ndarray) -> List[Configuration]:
        """The configurations at enumeration ``ranks``, in order."""
        return self._configurations(self.rank_columns(ranks))

    def _configurations(self, cols: Sequence[np.ndarray]) -> List[Configuration]:
        """Configurations from per-parameter value-index columns, in one batch."""
        value_cols = [
            [values[i] for i in idx.tolist()]
            for values, idx in zip(self._rank_tables().values, cols)
        ]
        return Configuration.batch(self._param_names, zip(*value_cols))

    def neighbors(self, config: Mapping[str, Any]) -> List[Configuration]:
        """One-parameter-away neighbors of ``config`` (used by local search)."""
        base = self.configuration(config)
        out: List[Configuration] = []
        for p in self._parameters:
            if not p.is_discrete:
                continue
            vals = p.values()
            current = base[p.name]
            if p.is_categorical:
                candidates = [v for v in vals if v != current]
            else:
                try:
                    idx = next(i for i, v in enumerate(vals) if v == current)
                except StopIteration:
                    idx = int(np.argmin([abs(p.to_numeric(v) - p.to_numeric(current)) for v in vals]))
                candidates = []
                if idx > 0:
                    candidates.append(vals[idx - 1])
                if idx < len(vals) - 1:
                    candidates.append(vals[idx + 1])
            for v in candidates:
                out.append(base.replace(**{p.name: v}))
        return out

    # -- numeric encoding ---------------------------------------------------------
    def encode(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode configurations into a ``(n, n_features)`` float matrix.

        Ordinal/integer/real/boolean parameters map to a single column holding
        their numeric value; categorical parameters map to a one-hot block.
        Encoding is columnar: values are pulled out per parameter and mapped
        through a cached value→feature lookup table instead of calling
        ``to_numeric`` / ``index_of`` once per configuration.
        """
        n = len(configs)
        X = np.zeros((n, self._n_features), dtype=np.float64)
        if n == 0:
            return X
        rows = np.arange(n)
        for vals, p in zip(self._value_columns(configs), self._parameters):
            sl = self._feature_slices[p.name]
            lut = self._encode_luts[p.name]
            if lut is not None:
                try:
                    col = np.array(
                        [lut[v] if v in lut else self._encode_fallback(p, v) for v in vals],
                        dtype=np.float64,
                    )
                except TypeError:  # unhashable config value
                    col = np.array([self._encode_fallback(p, v) for v in vals], dtype=np.float64)
            elif p.is_categorical:
                col = np.array([self._encode_fallback(p, v) for v in vals], dtype=np.float64)
            elif isinstance(p, (IntegerParameter, RealParameter)):
                # ``to_numeric`` is plain float conversion for these types.
                col = np.asarray(vals, dtype=np.float64)
            else:
                col = np.array([p.to_numeric(v) for v in vals], dtype=np.float64)
            if p.is_categorical:
                X[rows, sl.start + col.astype(np.int64)] = 1.0
            else:
                X[:, sl.start] = col
        return X

    @staticmethod
    def _encode_fallback(p: Parameter, value: Any) -> float:
        """Encode a value missing from the cached lookup table."""
        if p.is_categorical:
            return float(p.index_of(value))  # type: ignore[attr-defined]
        return float(p.to_numeric(value))

    def _value_columns(self, configs: Sequence[Mapping[str, Any]]) -> List[Sequence[Any]]:
        """Per-parameter value columns of ``configs`` (space order).

        Configurations laid out in space order expose their value tuples
        directly; arbitrary mappings fall back to keyed access.
        """
        names = self._param_names
        if all(isinstance(c, Configuration) and c.names == names for c in configs):
            return list(zip(*(c.values_tuple for c in configs)))
        return [[c[name] for c in configs] for name in names]

    def encode_one(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode a single configuration into a 1-D feature vector."""
        return self.encode([config])[0]

    def decode(self, X: np.ndarray) -> List[Configuration]:
        """Inverse of :meth:`encode` (snapping to the nearest legal values)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self._n_features:
            raise ValueError(f"expected {self._n_features} features, got {X.shape[1]}")
        configs: List[Configuration] = []
        for row in X:
            values: List[Any] = []
            for p in self._parameters:
                sl = self._feature_slices[p.name]
                if p.is_categorical:
                    idx = int(np.argmax(row[sl]))
                    values.append(p.values()[idx])
                else:
                    values.append(p.from_numeric(float(row[sl.start])))
            configs.append(Configuration(self.parameter_names, values))
        return configs

    def feature_slice(self, name: str) -> slice:
        """Column slice of the encoded matrix owned by parameter ``name``."""
        return self._feature_slices[name]

    # -- misc -----------------------------------------------------------------
    def subspace(self, names: Sequence[str], name: Optional[str] = None) -> "DesignSpace":
        """A new space restricted to the given parameter names (same order)."""
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown parameters: {missing}")
        return DesignSpace([self._by_name[n] for n in names], name=name or f"{self.name}-sub")

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"DesignSpace(name={self.name!r}, dimension={self.dimension}, cardinality={self.cardinality})"


class _RangeIndex:
    """``dict.get``-style value → index lookup over an integer range.

    Integer domains can be far larger than any pool drawn from them, so
    their lookup is arithmetic instead of a table: ``value`` matches when it
    equals an integer of ``[lower, lower + size)``, as a table key would.
    """

    __slots__ = ("lower", "size")

    def __init__(self, lower: int, size: int) -> None:
        self.lower = lower
        self.size = size

    def get(self, value: Any) -> Optional[int]:
        try:
            iv = int(value)
        except (TypeError, ValueError, OverflowError):
            return None
        if iv != value:
            return None
        i = iv - self.lower
        return i if 0 <= i < self.size else None


class _Ranking:
    """Mixed-radix tables of a finite space (built once per space).

    ``values[j]`` indexes parameter ``j``'s values (a ``range`` for integer
    parameters, so no domain is materialized), ``lookups[j]`` maps a value
    back to its index, and ``strides[j]`` is the rank weight of that index.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.values: List[Sequence[Any]] = []
        self.lookups: List[Any] = []
        for p in parameters:
            if isinstance(p, IntegerParameter):
                self.values.append(range(p.lower, p.upper + 1))
                self.lookups.append(_RangeIndex(p.lower, p.upper - p.lower + 1))
            else:
                values = p.values()
                self.values.append(values)
                # Values are hashable: Configuration hashes them already.
                self.lookups.append({v: i for i, v in enumerate(values)})
        self.radix = [len(v) for v in self.values]
        strides = [1] * len(self.radix)
        for j in range(len(self.radix) - 2, -1, -1):
            strides[j] = strides[j + 1] * self.radix[j + 1]
        self.strides = strides
        self.total = strides[0] * self.radix[0]
        self.dtype = np.int64 if self.total <= np.iinfo(np.int64).max else object


class EnumeratedConfigs(Sequence[Configuration]):
    """Lazy view of a finite space's configurations, by enumeration rank.

    Without ``ranks`` it behaves like ``space.enumerate(limit)`` (same
    order, same elements); with a rank array, item ``i`` is the
    configuration of enumeration rank ``ranks[i]`` — a sampled pool is its
    rank array and this view.  Either way no ``Configuration`` is built per
    point: items are stamped out on access from the mixed-radix
    decomposition of their rank, and iteration decodes ranks a chunk at a
    time.  Position lookups are closed-form too: :meth:`index_of` ranks a
    configuration in O(d) and, over a rank array, finds its row by binary
    search in the sorted ranks.  That is what lets a 1.8M-configuration
    crowd pool or a 50,000-configuration sampled pool skip both the config
    list and the config→row dictionary entirely.
    """

    def __init__(
        self,
        space: DesignSpace,
        limit: Optional[int] = None,
        ranks: Optional[np.ndarray] = None,
    ) -> None:
        if not space.is_enumerable:
            raise ValueError(f"design space {space.name!r} is not enumerable")
        if ranks is not None and limit is not None:
            raise ValueError("give either a limit or a rank array, not both")
        self.space = space
        self._ranks = None if ranks is None else np.asarray(ranks)
        if self._ranks is not None:
            self._total = int(self._ranks.size)
        else:
            total = space._rank_tables().total
            self._total = total if limit is None else max(0, min(int(limit), total))
        #: ``(sorted ranks, their rows)``, built on the first lookup.
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._total))]
        if i < 0:
            i += self._total
        if not (0 <= i < self._total):
            raise IndexError(f"index {i} out of range for {self._total} configurations")
        rank = i if self._ranks is None else self._ranks[i]
        return self.space.configurations_at(np.array([rank]))[0]

    def __iter__(self) -> Iterator[Configuration]:
        chunk = 8192
        for start in range(0, self._total, chunk):
            stop = min(start + chunk, self._total)
            ranks = np.arange(start, stop) if self._ranks is None else self._ranks[start:stop]
            yield from self.space.configurations_at(ranks)

    def __contains__(self, config: object) -> bool:
        return isinstance(config, Mapping) and self.index_of(config) is not None

    def index_of(self, config: Mapping[str, Any]) -> Optional[int]:
        """Position of ``config`` in this sequence, or ``None`` if absent."""
        rank = self.space.rank_of(config)
        return None if rank is None else self.row_of_rank(rank)

    def row_of_rank(self, rank: int) -> Optional[int]:
        """Position of the configuration of enumeration ``rank``, or ``None``.

        Over a rank array, a binary search in the sorted ranks (sorted on
        the first lookup); where a rank repeats, its first position.
        """
        if self._ranks is None:
            return rank if rank < self._total else None
        if self._sorted is None:
            rows = np.argsort(self._ranks, kind="stable")
            self._sorted = (self._ranks[rows], rows)
        sorted_ranks, rows = self._sorted
        pos = int(np.searchsorted(sorted_ranks, rank))
        if pos < sorted_ranks.size and sorted_ranks[pos] == rank:
            return int(rows[pos])
        return None


__all__ = ["Configuration", "DesignSpace", "EnumeratedConfigs"]
