"""Objective declarations for multi-objective optimization.

The paper optimizes two objectives simultaneously — mean/max absolute
trajectory error (metres, lower is better) and per-frame runtime (seconds,
lower is better).  :class:`ObjectiveSet` normalizes arbitrary
minimize/maximize declarations into a canonical "all minimized" internal form
so the Pareto utilities only ever deal with minimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class Objective:
    """A single scalar objective.

    Attributes
    ----------
    name:
        Identifier used to key objective values (e.g. ``"max_ate_m"``).
    minimize:
        ``True`` when smaller is better (both paper objectives minimize).
    unit:
        Free-form unit label used in reports.
    limit:
        Optional feasibility limit in the *natural* direction of the
        objective (e.g. the paper's 5 cm accuracy limit).  ``None`` means
        unconstrained.
    """

    name: str
    minimize: bool = True
    unit: str = ""
    limit: Optional[float] = None

    def canonical(self, value: float) -> float:
        """Map a raw value into minimization form (negate when maximizing)."""
        return float(value) if self.minimize else -float(value)

    def from_canonical(self, value: float) -> float:
        """Inverse of :meth:`canonical`."""
        return float(value) if self.minimize else -float(value)

    def is_feasible(self, value: float) -> bool:
        """Whether ``value`` satisfies the objective's feasibility limit."""
        if self.limit is None:
            return True
        return value <= self.limit if self.minimize else value >= self.limit


class ObjectiveSet:
    """An ordered set of objectives with conversion helpers.

    The optimizer and Pareto utilities operate on matrices whose columns are
    objectives in this declared order, already converted to minimization form.
    """

    def __init__(self, objectives: Sequence[Objective]) -> None:
        if len(objectives) == 0:
            raise ValueError("at least one objective is required")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self._objectives = list(objectives)

    @classmethod
    def minimize(cls, *names: str) -> "ObjectiveSet":
        """Convenience constructor for all-minimized objectives."""
        return cls([Objective(n, minimize=True) for n in names])

    @property
    def objectives(self) -> List[Objective]:
        """Objectives in declaration order."""
        return list(self._objectives)

    @property
    def names(self) -> List[str]:
        """Objective names in declaration order."""
        return [o.name for o in self._objectives]

    def __len__(self) -> int:
        return len(self._objectives)

    def __iter__(self):
        return iter(self._objectives)

    def __getitem__(self, key: Union[int, str]) -> Objective:
        if isinstance(key, int):
            return self._objectives[key]
        for o in self._objectives:
            if o.name == key:
                return o
        raise KeyError(key)

    def index(self, name: str) -> int:
        """Column index of objective ``name``."""
        for i, o in enumerate(self._objectives):
            if o.name == name:
                return i
        raise KeyError(name)

    # -- matrix conversions ------------------------------------------------
    def to_matrix(self, records: Sequence[Mapping[str, float]]) -> np.ndarray:
        """Stack objective dictionaries into an ``(n, m)`` matrix (natural units)."""
        out = np.empty((len(records), len(self._objectives)), dtype=np.float64)
        for i, rec in enumerate(records):
            for j, o in enumerate(self._objectives):
                out[i, j] = float(rec[o.name])
        return out

    def to_canonical(self, values: np.ndarray) -> np.ndarray:
        """Convert a natural-units matrix into all-minimized canonical form."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        signs = np.array([1.0 if o.minimize else -1.0 for o in self._objectives])
        return values * signs

    def from_canonical(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_canonical`."""
        return self.to_canonical(values)  # sign flip is an involution

    def to_dicts(self, values: np.ndarray) -> List[Dict[str, float]]:
        """Convert an ``(n, m)`` natural-units matrix back into dictionaries."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        return [
            {o.name: float(values[i, j]) for j, o in enumerate(self._objectives)}
            for i in range(values.shape[0])
        ]

    def feasibility_mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of rows that satisfy every objective's limit."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        mask = np.ones(values.shape[0], dtype=bool)
        for j, o in enumerate(self._objectives):
            if o.limit is None:
                continue
            if o.minimize:
                mask &= values[:, j] <= o.limit
            else:
                mask &= values[:, j] >= o.limit
        return mask


__all__ = ["Objective", "ObjectiveSet"]
