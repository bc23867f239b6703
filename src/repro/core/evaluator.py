"""Evaluation of configurations on the (simulated) hardware.

In the paper every evaluation is a full run of the SLAM pipeline over a video
sequence on a physical board — the expensive black box.  Here an evaluator
wraps any callable mapping a configuration to a dictionary of metric values.
Layers provide caching (identical configurations are never re-run) and budget
accounting; parallel fan-out, mirroring how runs are farmed out to hardware,
lives in :class:`~repro.core.executor.EvaluationExecutor`.
"""

from __future__ import annotations

import concurrent.futures
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


class CachedEvaluator(Evaluator):
    """Memoizing wrapper: identical configurations are evaluated only once.

    Algorithm 1 repeatedly computes the set difference between the predicted
    Pareto front and the already-evaluated set; the cache makes re-requests of
    known configurations free (and keeps evaluation counts honest).
    """

    def __init__(self, inner: Evaluator) -> None:
        super().__init__(inner.objectives)
        self._inner = inner
        self._cache: Dict[Configuration, MetricDict] = {}

    @property
    def n_evaluations(self) -> int:
        return self._inner.n_evaluations

    @property
    def cache_size(self) -> int:
        """Number of distinct configurations held in the cache."""
        return len(self._cache)

    def is_cached(self, config: Configuration) -> bool:
        """Whether ``config`` has already been evaluated."""
        return config in self._cache

    def evaluate(self, configs: Sequence[Configuration]) -> List[MetricDict]:
        missing = [c for c in configs if c not in self._cache]
        # Deduplicate while preserving order.
        unique_missing: List[Configuration] = []
        seen = set()
        for c in missing:
            if c not in seen:
                unique_missing.append(c)
                seen.add(c)
        if unique_missing:
            fresh = self._inner.evaluate(unique_missing)
            for c, m in zip(unique_missing, fresh):
                self._cache[c] = m
        return [dict(self._cache[c]) for c in configs]


class WorkerPoolLifecycle:
    """Shared lazy worker-pool construction + close/context-manager lifecycle.

    Mixed into the engine's :class:`~repro.core.executor.EvaluationExecutor`,
    which fans work out over a persistent ``concurrent.futures`` pool: the
    pool is created lazily on first use and persists across calls — spinning
    a pool up and down per batch costs more than a small batch itself.
    ``close()`` (or the context-manager protocol) releases the workers; a
    closed instance refuses further work.
    """

    n_workers: int
    backend: str
    _pool: Optional[concurrent.futures.Executor] = None
    _closed: bool = False

    @staticmethod
    def _validate_pool_args(n_workers: int, backend: str) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        allowed = ("thread", "process", "socket")
        if backend not in allowed:
            raise ValueError(f"backend must be one of {allowed!r}")

    def _get_pool(self) -> concurrent.futures.Executor:
        if self._closed:
            raise RuntimeError(f"this {type(self).__name__} has been closed")
        if self._pool is None:
            executor_cls = (
                concurrent.futures.ThreadPoolExecutor
                if self.backend == "thread"
                else concurrent.futures.ProcessPoolExecutor
            )
            self._pool = executor_cls(max_workers=self.n_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        # Last-resort guard against leaked worker pools when an exception
        # escapes submit/gather/evaluate and the owner never calls close()
        # (e.g. a crashed study).  Owners should still close deterministically
        # — Study.run does, in a finally block — this only stops a dropped
        # executor from pinning worker processes for the interpreter's life.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)


__all__ = [
    "MetricDict",
    "EvaluationFunction",
    "EvaluationBudgetExceeded",
    "Evaluator",
    "FunctionEvaluator",
    "CachedEvaluator",
    "WorkerPoolLifecycle",
]
