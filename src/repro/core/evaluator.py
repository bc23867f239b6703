"""Evaluation of configurations on the (simulated) hardware.

In the paper every evaluation is a full run of the SLAM pipeline over a video
sequence on a physical board — the expensive black box.  Here an evaluator
wraps any callable mapping a configuration to a dictionary of metric values.
Evaluators provide budget accounting; caching (identical configurations are
never re-run) and parallel fan-out, mirroring how runs are farmed out to
hardware, live in :class:`~repro.core.executor.EvaluationExecutor`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.objectives import ObjectiveSet
from repro.core.space import Configuration

MetricDict = Dict[str, float]
EvaluationFunction = Callable[[Configuration], Mapping[str, float]]


class EvaluationBudgetExceeded(RuntimeError):
    """Raised when an evaluator would exceed its configured evaluation budget."""


class Evaluator(ABC):
    """Abstract interface: evaluate configurations, track how many were run."""

    def __init__(self, objectives: ObjectiveSet) -> None:
        self.objectives = objectives
        self._n_evaluations = 0

    @property
    def n_evaluations(self) -> int:
        """Number of configurations actually evaluated (cache hits excluded)."""
        return self._n_evaluations

    @abstractmethod
    def evaluate(self, configs: Sequence[Configuration]) -> List[MetricDict]:
        """Evaluate ``configs`` and return one metric dictionary per config.

        Every returned dictionary must contain at least the declared objective
        names; extra metric keys (e.g. power, per-kernel breakdowns) are passed
        through to the history.
        """

    def evaluate_one(self, config: Configuration) -> MetricDict:
        """Evaluate a single configuration."""
        return self.evaluate([config])[0]

    def _check_metrics(self, metrics: Mapping[str, float]) -> MetricDict:
        missing = [o.name for o in self.objectives if o.name not in metrics]
        if missing:
            raise KeyError(f"evaluation result is missing objective values: {missing}")
        return {str(k): float(v) for k, v in metrics.items()}


class FunctionEvaluator(Evaluator):
    """Evaluator wrapping a plain Python callable.

    Parameters
    ----------
    fn:
        Callable mapping a configuration to a metric mapping.
    objectives:
        The declared objectives (validated against every result).
    max_evaluations:
        Optional hard budget; exceeding it raises
        :class:`EvaluationBudgetExceeded`.  This mirrors the paper's fixed
        hardware sampling budgets (e.g. 3,000 random samples).
    """

    def __init__(
        self,
        fn: EvaluationFunction,
        objectives: ObjectiveSet,
        max_evaluations: Optional[int] = None,
    ) -> None:
        super().__init__(objectives)
        self._fn = fn
        self.max_evaluations = max_evaluations

    def evaluate(self, configs: Sequence[Configuration]) -> List[MetricDict]:
        if self.max_evaluations is not None and self._n_evaluations + len(configs) > self.max_evaluations:
            raise EvaluationBudgetExceeded(
                f"evaluating {len(configs)} configurations would exceed the budget of "
                f"{self.max_evaluations} (already used {self._n_evaluations})"
            )
        results = []
        for config in configs:
            metrics = self._check_metrics(self._fn(config))
            results.append(metrics)
            self._n_evaluations += 1
        return results


__all__ = [
    "MetricDict",
    "EvaluationFunction",
    "EvaluationBudgetExceeded",
    "Evaluator",
    "FunctionEvaluator",
]
