"""HyperMapper's model-based multi-objective search (Algorithm 1 of the paper).

The optimizer alternates between

1. evaluating configurations on the (simulated) hardware,
2. fitting one random forest per objective on everything evaluated so far,
3. predicting both objectives over the whole configuration pool and computing
   the predicted Pareto front,
4. evaluating the predicted-Pareto configurations that have not been run yet,

until the predicted front contains no new configurations (or an iteration /
budget cap is hit).  This "letting the predictive model decide which samples
will be most beneficial" loop is the paper's active-learning strategy.

Since the engine refactor, :class:`HyperMapper` is a thin facade over the
composable search engine: the loop itself lives in
:class:`~repro.core.engine.SearchDriver`, the proposal policy in
:class:`~repro.core.acquisition.PredictedPareto` (swappable via the
``acquisition`` argument), and evaluation dispatch in
:class:`~repro.core.executor.EvaluationExecutor` (serial by default; pass
``n_workers`` or an explicit executor for async batched evaluation, and
``overlap_fraction`` to refit while stragglers are still running).  With the
defaults the results are bit-identical to the original inlined loop.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.core.acquisition import AcquisitionStrategy, PredictedPareto, make_acquisition
from repro.core.engine import ActiveLearningReport, HyperMapperResult, SearchDriver
from repro.core.evaluator import EvaluationFunction, Evaluator
from repro.core.executor import EvaluationExecutor, as_executor
from repro.core.history import History
from repro.core.registry import ACQUISITION_REGISTRY, SearchContext, register_search
from repro.core.sampling import Sampler
from repro.core.objectives import ObjectiveSet
from repro.core.space import DesignSpace
from repro.utils.rng import RandomState


class HyperMapper:
    """Multi-objective random-forest active-learning optimizer.

    Parameters
    ----------
    space:
        The design space to explore.
    objectives:
        The objectives to minimize/maximize (the paper uses max ATE and
        per-frame runtime, both minimized).
    evaluator:
        An :class:`~repro.core.evaluator.Evaluator`, a plain callable
        ``config -> {objective: value}``, or a pre-built
        :class:`~repro.core.executor.EvaluationExecutor`.  Evaluations are
        memoized, so repeated configurations cost nothing.
    n_random_samples:
        Size of the bootstrap random-sampling phase (``rs`` in Algorithm 1).
    max_iterations:
        Maximum number of active-learning iterations (the paper runs ~6 on
        KFusion/ODROID).
    pool_size:
        Size of the configuration pool the surrogate predicts over.  ``None``
        enumerates the full space when small enough, otherwise draws a random
        pool.
    max_samples_per_iteration:
        Cap on new hardware evaluations per iteration (the paper observes
        between 100 and 300 new samples per iteration).  ``None`` evaluates the
        whole predicted front.
    feasible_only:
        Restrict the predicted front to configurations predicted feasible
        (objective limits such as ATE < 5 cm).
    surrogate_kwargs:
        Extra keyword arguments forwarded to
        :class:`~repro.core.surrogate.MultiObjectiveSurrogate`.
    acquisition:
        Proposal policy: an
        :class:`~repro.core.acquisition.AcquisitionStrategy` instance or a
        registered name (``"predicted_pareto"`` — the default, the paper's
        Algorithm 1 — ``"uncertainty_weighted"``, ``"epsilon_greedy"``).
    n_workers, backend:
        Shorthand for building an async executor when ``evaluator`` is not
        already one (``n_workers=1`` keeps the serial reference path).
    overlap_fraction:
        See :class:`~repro.core.engine.SearchDriver`: gather only the first
        ``ceil(f * batch)`` evaluations of each batch before refitting while
        the stragglers keep running.  ``None`` (default) gathers fully.
    checkpoint_path, checkpoint_every:
        Write a resumable run state after the bootstrap and after every
        ``checkpoint_every``-th iteration; resume with
        ``run(resume_from=checkpoint_path)``.
    history_path:
        The ``history.jsonl`` every record is streamed to (default: next to
        ``checkpoint_path``; see :class:`~repro.core.engine.SearchDriver`).
    seed:
        Master seed controlling sampling, pool construction and forests.
    """

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        evaluator: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        n_random_samples: int = 100,
        max_iterations: int = 6,
        pool_size: Optional[int] = 20_000,
        max_samples_per_iteration: Optional[int] = 300,
        feasible_only: bool = True,
        surrogate_kwargs: Optional[Mapping[str, object]] = None,
        sampler: Optional[Sampler] = None,
        seed: RandomState = None,
        *,
        acquisition: Union[AcquisitionStrategy, str, None] = None,
        n_workers: int = 1,
        backend: str = "thread",
        overlap_fraction: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        history_path=None,
        stop_requested=None,
    ) -> None:
        if n_random_samples < 1:
            raise ValueError("n_random_samples must be >= 1")
        if max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        self.space = space
        self.objectives = objectives
        self.executor = as_executor(
            evaluator, objectives, n_workers=n_workers, backend=backend
        )
        self.n_random_samples = int(n_random_samples)
        self.max_iterations = int(max_iterations)
        self.pool_size = pool_size
        self.max_samples_per_iteration = max_samples_per_iteration
        self.feasible_only = bool(feasible_only)
        self.surrogate_kwargs = dict(surrogate_kwargs or {})
        self.seed = seed
        if acquisition is None:
            self.acquisition: AcquisitionStrategy = PredictedPareto(feasible_only=self.feasible_only)
        elif isinstance(acquisition, str):
            self.acquisition = make_acquisition(acquisition, feasible_only=self.feasible_only)
        else:
            self.acquisition = acquisition
        self.driver = SearchDriver(
            space,
            objectives,
            self.executor,
            self.acquisition,
            n_random_samples=self.n_random_samples,
            bootstrap_source="random",
            max_iterations=self.max_iterations,
            pool_size=pool_size,
            max_samples_per_iteration=max_samples_per_iteration,
            sampler=sampler,
            surrogate_kwargs=self.surrogate_kwargs,
            overlap_fraction=overlap_fraction,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            history_path=history_path,
            stop_requested=stop_requested,
            seed=seed,
            rng_label="hypermapper",
        )

    @property
    def sampler(self) -> Sampler:
        """The bootstrap sampler (driver-owned)."""
        return self.driver.sampler

    @property
    def evaluator(self) -> EvaluationExecutor:
        """The evaluation executor (memoizing, budget-accounting)."""
        return self.executor

    # -- main entry point --------------------------------------------------------
    def run(
        self,
        initial_history: Optional[History] = None,
        resume_from: Optional[str] = None,
    ) -> HyperMapperResult:
        """Execute Algorithm 1 and return the result.

        ``initial_history`` allows warm-starting from pre-evaluated samples
        (e.g. reusing the random-sampling phase across ablations);
        ``resume_from`` continues a checkpointed run bit-identically.
        """
        return self.driver.run(initial_history=initial_history, resume_from=resume_from)


# ---------------------------------------------------------------------------
# Scenario plugin: "hypermapper" is the default search algorithm.
# ---------------------------------------------------------------------------


def _acquisition_from_spec(spec, feasible_only: bool):
    """Build the acquisition a scenario's ``search.acquisition`` names.

    Accepts a plain registered name or ``{"name": ..., <params>}``; ``None``
    keeps HyperMapper's default (:class:`~repro.core.acquisition.PredictedPareto`).
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        return make_acquisition(spec, feasible_only=feasible_only)
    params = {k: v for k, v in spec.items() if k != "name"}
    params.setdefault("feasible_only", feasible_only)
    return ACQUISITION_REGISTRY.get(spec["name"])(**params)


@register_search("hypermapper")
def _build_hypermapper(ctx: SearchContext) -> HyperMapper:
    """Instantiate :class:`HyperMapper` from a validated ``search`` section.

    The defaults are exactly the constructor's, so a scenario that spells out
    the same knobs as a hand-wired ``HyperMapper(...)`` call produces a
    bit-identical run.
    """
    spec = ctx.spec
    feasible_only = bool(spec.get("feasible_only", True))
    return HyperMapper(
        ctx.space,
        ctx.objectives,
        ctx.executor,
        n_random_samples=spec.get("n_random_samples", 100),
        max_iterations=spec.get("max_iterations", 6),
        pool_size=spec.get("pool_size", 20_000),
        max_samples_per_iteration=spec.get("max_samples_per_iteration", 300),
        feasible_only=feasible_only,
        surrogate_kwargs=spec.get("surrogate"),
        seed=ctx.seed,
        acquisition=_acquisition_from_spec(spec.get("acquisition"), feasible_only),
        overlap_fraction=ctx.overlap_fraction,
        checkpoint_path=ctx.checkpoint_path,
        checkpoint_every=ctx.checkpoint_every,
        history_path=ctx.history_path,
        stop_requested=ctx.stop_requested,
    )


# Scenario validation applies its built-in key tables only while this marker
# is in place; re-registering "hypermapper" with a custom builder relaxes
# validation to pass-through.
_build_hypermapper.builtin_search_name = "hypermapper"


__all__ = ["HyperMapper", "HyperMapperResult", "ActiveLearningReport"]
