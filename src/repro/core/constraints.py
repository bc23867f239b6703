"""Feasibility constraints on configurations and on objective values.

The paper counts "valid configurations" as those with a maximum ATE below
5 cm.  :class:`BoundConstraint` expresses such metric bounds;
:class:`Constraint` also supports arbitrary predicates over the configuration
itself (e.g. ruling out parameter combinations that are known a priori to be
nonsensical), which is useful when restricting the pool handed to the
surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Constraint:
    """A named predicate over a configuration and/or its metric values.

    ``predicate(config, metrics)`` returns ``True`` when the point is
    feasible.  ``metrics`` may be ``None`` when the constraint is checked
    before evaluation (configuration-only constraints must then not rely on
    it).
    """

    name: str
    predicate: Callable[[Mapping[str, object], Optional[Mapping[str, float]]], bool]
    requires_metrics: bool = False

    def is_satisfied(self, config: Mapping[str, object], metrics: Optional[Mapping[str, float]] = None) -> bool:
        """Evaluate the predicate (unevaluable metric constraints count as feasible)."""
        if self.requires_metrics and metrics is None:
            return True
        return bool(self.predicate(config, metrics))


def BoundConstraint(metric: str, upper: Optional[float] = None, lower: Optional[float] = None, name: Optional[str] = None) -> Constraint:
    """Constraint bounding a metric value (inclusive bounds).

    Examples
    --------
    >>> ate_limit = BoundConstraint("max_ate_m", upper=0.05)
    """
    if upper is None and lower is None:
        raise ValueError("BoundConstraint requires at least one of upper/lower")

    def predicate(config: Mapping[str, object], metrics: Optional[Mapping[str, float]]) -> bool:
        assert metrics is not None
        value = float(metrics[metric])
        if upper is not None and value > upper:
            return False
        if lower is not None and value < lower:
            return False
        return True

    label = name or f"{metric} in [{lower if lower is not None else '-inf'}, {upper if upper is not None else 'inf'}]"
    return Constraint(name=label, predicate=predicate, requires_metrics=True)


class ConstraintSet:
    """A collection of constraints with convenience mask helpers."""

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._constraints: List[Constraint] = list(constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self):
        return iter(self._constraints)

    def add(self, constraint: Constraint) -> None:
        """Append a constraint."""
        self._constraints.append(constraint)

    def is_feasible(self, config: Mapping[str, object], metrics: Optional[Mapping[str, float]] = None) -> bool:
        """Whether every constraint is satisfied."""
        return all(c.is_satisfied(config, metrics) for c in self._constraints)

    def mask(
        self,
        configs: Sequence[Mapping[str, object]],
        metrics: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> np.ndarray:
        """Boolean feasibility mask over parallel sequences of configs/metrics."""
        out = np.ones(len(configs), dtype=bool)
        for i, config in enumerate(configs):
            m = metrics[i] if metrics is not None else None
            out[i] = self.is_feasible(config, m)
        return out

    def names(self) -> List[str]:
        """Constraint names."""
        return [c.name for c in self._constraints]


__all__ = ["Constraint", "BoundConstraint", "ConstraintSet"]
