"""Parameter types used to declare algorithmic design spaces.

The KFusion and ElasticFusion design spaces of the paper are discrete: every
parameter takes one of a small set of values (volume resolutions, integration
rates, boolean flags, ...).  The abstractions here nevertheless support
continuous parameters so HyperMapper can be used on arbitrary black boxes.

Each parameter knows how to

* enumerate or sample its values,
* convert a value to/from a numeric feature used by the random-forest
  surrogate (``to_numeric`` / ``from_numeric``),
* report whether it is categorical (unordered), which changes how the tree
  splits on it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.utils.rng import RandomState, as_generator


class Parameter(ABC):
    """Abstract base class for a single tunable parameter."""

    def __init__(self, name: str, default: Any = None) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("parameter name must be a non-empty string")
        self.name = name
        self._default = default

    # -- domain ------------------------------------------------------------
    @property
    @abstractmethod
    def cardinality(self) -> float:
        """Number of distinct values (``math.inf`` for continuous)."""

    @property
    def is_discrete(self) -> bool:
        """Whether the domain can be enumerated."""
        return math.isfinite(self.cardinality)

    @property
    def is_categorical(self) -> bool:
        """Whether the domain is unordered (affects surrogate encoding)."""
        return False

    @property
    def default(self) -> Any:
        """Default value (the value used in the application's shipped config)."""
        if self._default is None:
            return self._fallback_default()
        return self._default

    @abstractmethod
    def _fallback_default(self) -> Any:
        """Default when the user did not provide one."""

    @abstractmethod
    def values(self) -> List[Any]:
        """All values for discrete parameters (raises for continuous)."""

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Whether ``value`` lies inside the domain."""

    # -- sampling ----------------------------------------------------------
    @abstractmethod
    def sample(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        """Draw one value (``size=None``) or an array/list of values."""

    def sample_index(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        """Draw indices into :meth:`values`: one ``integers`` call.

        Every discrete type samples through this draw, and
        :meth:`repro.core.space.DesignSpace.sample_ranks` combines the
        parameters' indices into enumeration ranks without building values.
        """
        return as_generator(rng).integers(int(self.cardinality), size=size)

    # -- numeric encoding --------------------------------------------------
    @abstractmethod
    def to_numeric(self, value: Any) -> float:
        """Map a domain value to the numeric feature fed to the surrogate."""

    @abstractmethod
    def from_numeric(self, x: float) -> Any:
        """Inverse of :meth:`to_numeric` (snapping to the nearest legal value)."""

    def validate(self, value: Any) -> Any:
        """Return ``value`` if legal, raising :class:`ValueError` otherwise."""
        if not self.contains(value):
            raise ValueError(f"value {value!r} is outside the domain of parameter {self.name!r}")
        return value

    # -- serialization -------------------------------------------------------
    @abstractmethod
    def to_dict(self) -> dict:
        """Plain-dict specification, the exact inverse of :func:`parameter_from_dict`.

        The round trip ``parameter_from_dict(p.to_dict()) == p`` holds for
        every parameter type; an explicitly provided default is preserved,
        an implicit (fallback) default stays implicit.
        """

    def _base_dict(self, kind: str) -> dict:
        d: dict = {"type": kind, "name": self.name}
        if self._default is not None:
            d["default"] = self._default
        return d

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))

    # -- misc ----------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(name={self.name!r})"


class OrdinalParameter(Parameter):
    """A parameter taking one of an explicit, *ordered* list of values.

    This is the workhorse of the SLAM design spaces (e.g. volume resolution in
    ``{64, 128, 256}``, µ in ``{0.025, ..., 0.5}``).  Values may be numbers or
    any hashable objects; ordering follows the list order and the numeric
    encoding is the value itself when numeric, else the index.
    """

    def __init__(self, name: str, values: Sequence[Any], default: Any = None) -> None:
        super().__init__(name, default)
        if len(values) == 0:
            raise ValueError(f"ordinal parameter {name!r} needs at least one value")
        seen = set()
        cleaned: List[Any] = []
        for v in values:
            key = v
            if key in seen:
                raise ValueError(f"duplicate value {v!r} in ordinal parameter {name!r}")
            seen.add(key)
            cleaned.append(v)
        self._values = cleaned
        self._numeric = all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in cleaned)
        if default is not None and default not in seen:
            raise ValueError(f"default {default!r} not among values of parameter {name!r}")

    @property
    def cardinality(self) -> float:
        return float(len(self._values))

    def _fallback_default(self) -> Any:
        return self._values[len(self._values) // 2]

    def values(self) -> List[Any]:
        return list(self._values)

    def contains(self, value: Any) -> bool:
        return any(value == v for v in self._values)

    def sample(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        idx = self.sample_index(rng, size)
        if size is None:
            return self._values[int(idx)]
        return [self._values[i] for i in idx.tolist()]

    def to_numeric(self, value: Any) -> float:
        if self._numeric:
            return float(value)
        return float(self.index_of(value))

    def from_numeric(self, x: float) -> Any:
        if self._numeric:
            arr = np.asarray(self._values, dtype=float)
            return self._values[int(np.argmin(np.abs(arr - x)))]
        idx = int(round(x))
        idx = min(max(idx, 0), len(self._values) - 1)
        return self._values[idx]

    def index_of(self, value: Any) -> int:
        """Index of ``value`` in the ordered value list."""
        for i, v in enumerate(self._values):
            if v == value:
                return i
        raise ValueError(f"value {value!r} not in ordinal parameter {self.name!r}")

    def to_dict(self) -> dict:
        d = self._base_dict("ordinal")
        d["values"] = list(self._values)
        return d


class IntegerParameter(Parameter):
    """An integer parameter in an inclusive range ``[lower, upper]``."""

    def __init__(self, name: str, lower: int, upper: int, default: Optional[int] = None) -> None:
        super().__init__(name, default)
        lower, upper = int(lower), int(upper)
        if lower > upper:
            raise ValueError(f"lower bound {lower} exceeds upper bound {upper} for {name!r}")
        self.lower = lower
        self.upper = upper
        if default is not None and not (lower <= int(default) <= upper):
            raise ValueError(f"default {default} outside [{lower}, {upper}] for {name!r}")

    @property
    def cardinality(self) -> float:
        return float(self.upper - self.lower + 1)

    def _fallback_default(self) -> int:
        return (self.lower + self.upper) // 2

    def values(self) -> List[int]:
        return list(range(self.lower, self.upper + 1))

    def contains(self, value: Any) -> bool:
        try:
            iv = int(value)
        except (TypeError, ValueError):
            return False
        return iv == value and self.lower <= iv <= self.upper

    def sample_index(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        return as_generator(rng).integers(self.lower, self.upper + 1, size=size) - self.lower

    def sample(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        idx = self.sample_index(rng, size)
        if size is None:
            return self.lower + int(idx)
        return [self.lower + i for i in idx.tolist()]

    def to_numeric(self, value: Any) -> float:
        return float(value)

    def from_numeric(self, x: float) -> int:
        return int(min(max(round(x), self.lower), self.upper))

    def to_dict(self) -> dict:
        d = self._base_dict("integer")
        d["lower"] = self.lower
        d["upper"] = self.upper
        return d


class RealParameter(Parameter):
    """A continuous parameter on ``[lower, upper]``, optionally log-uniform.

    For enumeration-based search (grid sampling, exhaustive pools) the domain
    is discretized into ``grid_points`` evenly spaced values.
    """

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        default: Optional[float] = None,
        log_scale: bool = False,
        grid_points: int = 16,
    ) -> None:
        super().__init__(name, default)
        lower, upper = float(lower), float(upper)
        if not (lower < upper):
            raise ValueError(f"need lower < upper for real parameter {name!r}")
        if log_scale and lower <= 0:
            raise ValueError(f"log-scale parameter {name!r} requires a positive lower bound")
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        self.lower = lower
        self.upper = upper
        self.log_scale = bool(log_scale)
        self.grid_points = int(grid_points)
        if default is not None and not (lower <= float(default) <= upper):
            raise ValueError(f"default {default} outside [{lower}, {upper}] for {name!r}")

    @property
    def cardinality(self) -> float:
        return math.inf

    def _fallback_default(self) -> float:
        if self.log_scale:
            return float(np.sqrt(self.lower * self.upper))
        return 0.5 * (self.lower + self.upper)

    def values(self) -> List[float]:
        """A ``grid_points``-long discretization of the domain."""
        if self.log_scale:
            return [float(v) for v in np.geomspace(self.lower, self.upper, self.grid_points)]
        return [float(v) for v in np.linspace(self.lower, self.upper, self.grid_points)]

    def contains(self, value: Any) -> bool:
        try:
            fv = float(value)
        except (TypeError, ValueError):
            return False
        return self.lower <= fv <= self.upper

    def sample(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        gen = as_generator(rng)
        n = 1 if size is None else size
        if self.log_scale:
            draws = np.exp(gen.uniform(np.log(self.lower), np.log(self.upper), size=n))
        else:
            draws = gen.uniform(self.lower, self.upper, size=n)
        if size is None:
            return float(draws[0])
        return [float(v) for v in draws]

    def to_numeric(self, value: Any) -> float:
        return float(value)

    def from_numeric(self, x: float) -> float:
        return float(min(max(x, self.lower), self.upper))

    def to_dict(self) -> dict:
        d = self._base_dict("real")
        d["lower"] = self.lower
        d["upper"] = self.upper
        if self.log_scale:
            d["log_scale"] = True
        if self.grid_points != 16:
            d["grid_points"] = self.grid_points
        return d


class CategoricalParameter(Parameter):
    """A parameter taking one of an *unordered* set of choices.

    The numeric encoding is the choice index; the surrogate layer one-hot
    encodes categorical parameters so that the index ordering carries no
    meaning.
    """

    def __init__(self, name: str, choices: Sequence[Any], default: Any = None) -> None:
        super().__init__(name, default)
        if len(choices) == 0:
            raise ValueError(f"categorical parameter {name!r} needs at least one choice")
        if len(set(map(repr, choices))) != len(choices):
            raise ValueError(f"duplicate choices in categorical parameter {name!r}")
        self._choices = list(choices)
        # ``index_of`` finds a value by ``==``, so two choices that compare
        # equal (``1`` and ``True``, ``1`` and ``1.0``) would share one index.
        # Pairwise, since choices need not be hashable.
        for i, a in enumerate(self._choices):
            for b in self._choices[i + 1 :]:
                if a == b:
                    raise ValueError(f"categorical parameter {name!r} has choices {a!r} and {b!r} that compare equal")
        if default is not None and default not in self._choices:
            raise ValueError(f"default {default!r} not among choices of {name!r}")

    @property
    def cardinality(self) -> float:
        return float(len(self._choices))

    @property
    def is_categorical(self) -> bool:
        return True

    def _fallback_default(self) -> Any:
        return self._choices[0]

    def values(self) -> List[Any]:
        return list(self._choices)

    def contains(self, value: Any) -> bool:
        return value in self._choices

    def sample(self, rng: RandomState = None, size: Optional[int] = None) -> Any:
        idx = self.sample_index(rng, size)
        if size is None:
            return self._choices[int(idx)]
        return [self._choices[i] for i in idx.tolist()]

    def to_numeric(self, value: Any) -> float:
        return float(self.index_of(value))

    def from_numeric(self, x: float) -> Any:
        idx = int(round(x))
        idx = min(max(idx, 0), len(self._choices) - 1)
        return self._choices[idx]

    def index_of(self, value: Any) -> int:
        """Index of ``value`` among the choices."""
        for i, v in enumerate(self._choices):
            if v == value:
                return i
        raise ValueError(f"value {value!r} not a choice of categorical parameter {self.name!r}")

    def to_dict(self) -> dict:
        d = self._base_dict("categorical")
        d["choices"] = list(self._choices)
        return d


class BooleanParameter(CategoricalParameter):
    """A boolean flag (ElasticFusion exposes five of these)."""

    def __init__(self, name: str, default: bool = False) -> None:
        super().__init__(name, [False, True], default=bool(default))

    def to_numeric(self, value: Any) -> float:
        return 1.0 if bool(value) else 0.0

    def from_numeric(self, x: float) -> bool:
        return bool(x >= 0.5)

    @property
    def is_categorical(self) -> bool:
        # Booleans are safe to treat as ordered 0/1 features for the forest.
        return False

    def to_dict(self) -> dict:
        # ``default`` is always materialized (the constructor coerces it), so
        # it is always emitted — unlike the other types, where an implicit
        # fallback default stays implicit.
        return {"type": "boolean", "name": self.name, "default": bool(self.default)}


def parameter_from_dict(spec: dict) -> Parameter:
    """Build a parameter from a plain-dict specification.

    Recognized ``type`` values: ``ordinal``, ``integer``, ``real``,
    ``categorical``, ``boolean``.  This is the JSON-facing constructor used to
    declare spaces in configuration files, mirroring HyperMapper's JSON space
    description.
    """
    kind = spec.get("type")
    name = spec.get("name")
    if not name:
        raise ValueError("parameter specification requires a 'name'")
    if kind == "ordinal":
        return OrdinalParameter(name, spec["values"], default=spec.get("default"))
    if kind == "integer":
        return IntegerParameter(name, spec["lower"], spec["upper"], default=spec.get("default"))
    if kind == "real":
        return RealParameter(
            name,
            spec["lower"],
            spec["upper"],
            default=spec.get("default"),
            log_scale=spec.get("log_scale", False),
            grid_points=spec.get("grid_points", 16),
        )
    if kind == "categorical":
        return CategoricalParameter(name, spec["choices"], default=spec.get("default"))
    if kind == "boolean":
        return BooleanParameter(name, default=spec.get("default", False))
    raise ValueError(f"unknown parameter type {kind!r}")


__all__ = [
    "Parameter",
    "OrdinalParameter",
    "IntegerParameter",
    "RealParameter",
    "CategoricalParameter",
    "BooleanParameter",
    "parameter_from_dict",
]
