"""Baseline search strategies HyperMapper is compared against.

The paper compares active learning against

* plain uniform **random sampling** (Figs. 3 and 4, red points),
* the **expert default configuration** shipped with each application,
* an expert **brute-force grid search** (how the ElasticFusion authors tuned
  their defaults).

We additionally provide a hill-climbing **local search**, an NSGA-II style
**evolutionary search** and an OpenTuner-like **multi-armed bandit** over
sub-strategies; these are used in the ablation benchmarks to show where a
surrogate-guided search pays off.

Every baseline runs on the same composable engine as HyperMapper: its
proposal logic is an :class:`~repro.core.acquisition.AcquisitionStrategy`
state machine driven by the shared
:class:`~repro.core.engine.SearchDriver` loop kernel, and every evaluation
goes through the shared (cachable, budget-accounting, optionally async)
:class:`~repro.core.executor.EvaluationExecutor`.  Histories are
bit-identical to the pre-engine implementations under a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.acquisition import AcquisitionStrategy, Proposal
from repro.core.engine import HyperMapperResult, SearchDriver, SearchState
from repro.core.evaluator import EvaluationFunction, Evaluator
from repro.core.executor import EvaluationExecutor, as_executor
from repro.core.history import EvaluationRecord
from repro.core.objectives import ObjectiveSet
from repro.core.pareto import crowding_distance, non_dominated_sort
from repro.core.registry import SearchContext, register_search
from repro.core.sampling import GridSampler, RandomSampler
from repro.core.space import Configuration, DesignSpace
from repro.utils.rng import RandomState, as_generator, derive_seed


class _BaseSearch:
    """Shared plumbing: executor wrapping, driver construction, seeding."""

    source = "baseline"
    rng_label = "baseline-search"

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        evaluator: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        seed: RandomState = None,
        *,
        n_workers: int = 1,
        backend: str = "thread",
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        history_path=None,
        stop_requested=None,
    ) -> None:
        self.space = space
        self.objectives = objectives
        self.executor = as_executor(evaluator, objectives, n_workers=n_workers, backend=backend)
        self.seed = seed
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.history_path = history_path
        self.stop_requested = stop_requested

    @property
    def evaluator(self) -> EvaluationExecutor:
        """The evaluation executor (memoizing, budget-accounting)."""
        return self.executor

    def _driver(self, strategy: Optional[AcquisitionStrategy] = None, **kwargs) -> SearchDriver:
        return SearchDriver(
            self.space,
            self.objectives,
            self.executor,
            strategy,
            bootstrap_source=self.source,
            compute_reports=False,
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            history_path=self.history_path,
            stop_requested=self.stop_requested,
            seed=self.seed,
            rng_label=self.rng_label,
            **kwargs,
        )


class RandomSearch(_BaseSearch):
    """Uniform random sampling with a fixed budget (the paper's red baseline)."""

    source = "random"
    rng_label = "random-search"

    def run(self, budget: int, *, resume_from: Optional[str] = None) -> HyperMapperResult:
        """Evaluate ``budget`` distinct uniformly random configurations."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        return self._driver(n_random_samples=budget).run(resume_from=resume_from)


class GridSearch(_BaseSearch):
    """Coarse-grid brute force (the expert hand-tuning stand-in)."""

    source = "grid"
    rng_label = "grid-search"

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        evaluator: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        levels: int = 3,
        seed: RandomState = None,
        **kwargs,
    ) -> None:
        super().__init__(space, objectives, evaluator, seed, **kwargs)
        self.levels = levels

    def run(self, budget: Optional[int] = None, *, resume_from: Optional[str] = None) -> HyperMapperResult:
        """Evaluate the coarse grid (optionally randomly capped at ``budget``)."""
        sampler = GridSampler(self.space, levels=self.levels)
        grid = sampler.full_grid()
        if budget is not None and len(grid) > budget:
            rng = as_generator(derive_seed(self.seed, "grid-search"))
            idx = rng.choice(len(grid), size=budget, replace=False)
            grid = [grid[int(i)] for i in idx]
        return self._driver(initial_configs=grid).run(resume_from=resume_from)


def _record_indexer(state: SearchState) -> Dict[int, int]:
    """``id(record) -> history index`` map for strategy-state serialization.

    Every record a baseline strategy holds on to is an object the shared
    history also holds (bootstrap records and ``observe``-d batch records),
    and history order is stable across checkpoint/restore — so a history
    index is a durable name for a record.
    """
    return {id(r): i for i, r in enumerate(state.history.records)}


class _LocalSearchStrategy(AcquisitionStrategy):
    """Hill-climbing state machine: one neighbor batch per driver iteration."""

    source = "local"
    supports_checkpoint = True

    def __init__(self, weights: np.ndarray, budget: int) -> None:
        self.weights = weights
        self.budget = int(budget)

    def _scalarize(self, state: SearchState, metrics: Mapping[str, float]) -> float:
        objectives = state.objectives
        values = np.array(
            [objectives[j].canonical(float(metrics[objectives[j].name])) for j in range(len(objectives))]
        )
        return float(np.sum(self.weights * values / self._scale))

    def reset(self, state: SearchState) -> None:
        # Bootstrap records are the restart points; their objective spread
        # establishes the scalarization scales.  On resume the scale and the
        # climb state are overwritten by ``load_state_dict`` (the restored
        # history is longer than the bootstrap the original run scaled by).
        self._engine_state = state
        values = state.history.objective_matrix(canonical=True)
        self._scale = np.maximum(np.abs(values).max(axis=0), 1e-12)
        self._queue: List[EvaluationRecord] = list(state.history.records)
        self._current: Optional[EvaluationRecord] = None
        self._current_score = float("inf")
        self._improved = False

    def state_dict(self) -> Dict[str, object]:
        idx = _record_indexer(self._engine_state)
        return {
            "scale": [float(x) for x in self._scale],
            "queue": [idx[id(r)] for r in self._queue],
            "current": None if self._current is None else idx[id(self._current)],
            "current_score": self._current_score,
            "improved": self._improved,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if not state:
            return
        records = self._engine_state.history.records
        self._scale = np.asarray(state["scale"], dtype=np.float64)
        self._queue = [records[int(i)] for i in state["queue"]]
        current = state["current"]
        self._current = None if current is None else records[int(current)]
        self._current_score = float(state["current_score"])
        self._improved = bool(state["improved"])

    def propose(self, state: SearchState) -> Optional[Proposal]:
        while True:
            if self._current is None:
                if not self._queue:
                    return None
                self._current = self._queue.pop(0)
                self._current_score = self._scalarize(state, self._current.metrics)
                self._improved = True
            used = len(state.history)
            if not (self._improved and used < self.budget):
                self._current = None
                continue
            self._improved = False
            neighbors = state.space.neighbors(self._current.config)
            state.rng.shuffle(neighbors)
            neighbors = neighbors[: max(self.budget - used, 0)]
            if not neighbors:
                self._current = None
                continue
            return Proposal(configs=neighbors, source=self.source, iteration=0)

    def observe(self, state: SearchState, records: Sequence[EvaluationRecord]) -> None:
        best = min(records, key=lambda r: self._scalarize(state, r.metrics))
        best_score = self._scalarize(state, best.metrics)
        if best_score < self._current_score:
            self._current, self._current_score = best, best_score
            self._improved = True


class LocalSearch(_BaseSearch):
    """Multi-start hill climbing on a scalarized objective.

    Scalarization uses weighted normalized objectives; each restart climbs by
    moving to the best one-parameter-away neighbor until no neighbor improves
    or the budget is exhausted.
    """

    source = "local"
    rng_label = "local-search"

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        evaluator: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        weights: Optional[Sequence[float]] = None,
        n_restarts: int = 4,
        seed: RandomState = None,
        **kwargs,
    ) -> None:
        super().__init__(space, objectives, evaluator, seed, **kwargs)
        if weights is None:
            weights = [1.0] * len(objectives)
        if len(weights) != len(objectives):
            raise ValueError("weights must match the number of objectives")
        self.weights = np.asarray(weights, dtype=np.float64)
        self.n_restarts = int(n_restarts)

    def run(
        self,
        budget: int,
        *,
        resume_from: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> HyperMapperResult:
        """Hill-climb within an evaluation ``budget`` split across restarts."""
        if budget < self.n_restarts:
            raise ValueError("budget must be at least n_restarts")
        strategy = _LocalSearchStrategy(self.weights, budget)
        return self._driver(
            strategy, n_random_samples=self.n_restarts, max_iterations=max_iterations
        ).run(resume_from=resume_from)


class _EvolutionaryStrategy(AcquisitionStrategy):
    """NSGA-II generation loop as a driver strategy."""

    source = "evolutionary"
    supports_checkpoint = True

    def __init__(self, search: "EvolutionarySearch", budget: int) -> None:
        self.search = search
        self.budget = int(budget)

    def reset(self, state: SearchState) -> None:
        self._engine_state = state
        self._records: List[EvaluationRecord] = list(state.history.records)
        self._used = len(self._records)
        self._generation = 0

    def state_dict(self) -> Dict[str, object]:
        idx = _record_indexer(self._engine_state)
        return {
            "population": [idx[id(r)] for r in self._records],
            "used": self._used,
            "generation": self._generation,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if not state:
            return
        records = self._engine_state.history.records
        self._records = [records[int(i)] for i in state["population"]]
        self._used = int(state["used"])
        self._generation = int(state["generation"])

    def propose(self, state: SearchState) -> Optional[Proposal]:
        if self._used >= self.budget:
            return None
        self._generation += 1
        records = self._records
        objectives = state.objectives
        rng = state.rng
        values = np.array([r.objective_values(objectives) for r in records])
        canonical = objectives.to_canonical(values)
        ranks = non_dominated_sort(canonical)
        crowd = crowding_distance(canonical)

        # Binary tournament selection on (rank, -crowding).
        def tournament() -> EvaluationRecord:
            i, j = rng.integers(len(records)), rng.integers(len(records))
            key_i = (ranks[i], -crowd[i])
            key_j = (ranks[j], -crowd[j])
            return records[i] if key_i <= key_j else records[j]

        n_children = min(self.search.population_size, self.budget - self._used)
        children: List[Configuration] = []
        seen = set(state.evaluated_configs)
        attempts = 0
        while len(children) < n_children and attempts < 20 * n_children:
            attempts += 1
            child = self.search._mutate(
                self.search._crossover(tournament().config, tournament().config, rng), rng
            )
            if child in seen:
                continue
            seen.add(child)
            children.append(child)
        if not children:
            return None
        return Proposal(configs=children, source=self.source, iteration=self._generation)

    def observe(self, state: SearchState, child_records: Sequence[EvaluationRecord]) -> None:
        self._used += len(child_records)
        objectives = state.objectives
        # Environmental selection: keep the best population_size individuals.
        combined = self._records + list(child_records)
        values = np.array([r.objective_values(objectives) for r in combined])
        canonical = objectives.to_canonical(values)
        ranks = non_dominated_sort(canonical)
        crowd = crowding_distance(canonical)
        order = sorted(range(len(combined)), key=lambda k: (ranks[k], -crowd[k]))
        self._records = [combined[k] for k in order[: self.search.population_size]]


class EvolutionarySearch(_BaseSearch):
    """NSGA-II style evolutionary multi-objective search (ablation baseline)."""

    source = "evolutionary"
    rng_label = "evolutionary-search"

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        evaluator: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        population_size: int = 24,
        mutation_rate: float = 0.25,
        seed: RandomState = None,
        **kwargs,
    ) -> None:
        super().__init__(space, objectives, evaluator, seed, **kwargs)
        if population_size < 4:
            raise ValueError("population_size must be >= 4")
        self.population_size = int(population_size)
        self.mutation_rate = float(mutation_rate)

    def _crossover(self, a: Configuration, b: Configuration, rng: np.random.Generator) -> Configuration:
        values = {}
        for name in self.space.parameter_names:
            values[name] = a[name] if rng.random() < 0.5 else b[name]
        return self.space.configuration(values)

    def _mutate(self, c: Configuration, rng: np.random.Generator) -> Configuration:
        values = c.to_dict()
        for p in self.space.parameters:
            if rng.random() < self.mutation_rate:
                values[p.name] = p.sample(rng)
        return self.space.configuration(values)

    def run(
        self,
        budget: int,
        *,
        resume_from: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> HyperMapperResult:
        """Evolve a population until the evaluation ``budget`` is used."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        # Tiny budgets (smoke-scale ablations) shrink the initial population
        # rather than erroring out; the run degenerates to random sampling.
        strategy = _EvolutionaryStrategy(self, budget)
        return self._driver(
            strategy,
            n_random_samples=min(self.population_size, budget),
            max_iterations=max_iterations,
        ).run(resume_from=resume_from)


class _BanditStrategy(AcquisitionStrategy):
    """UCB1 arm selection + generation as a driver strategy."""

    source = "bandit"
    supports_checkpoint = True

    ARMS = ("uniform", "mutate_pareto", "mutate_best")

    def __init__(self, search: "BanditSearch", budget: int, batch_size: int) -> None:
        self.search = search
        self.budget = int(budget)
        self.batch_size = int(batch_size)

    def reset(self, state: SearchState) -> None:
        self._plays = {a: 0 for a in self.ARMS}
        self._rewards = {a: 0.0 for a in self.ARMS}
        # The bootstrap batch counts as one uniform play that landed points.
        self._plays["uniform"] += 1
        self._rewards["uniform"] += 1.0
        self._used = len(state.history)
        self._iteration = 0
        self._arm = "uniform"
        self._before_front: set = set()

    def state_dict(self) -> Dict[str, object]:
        # ``_arm``/``_before_front`` carry state only from ``propose`` to the
        # same iteration's ``observe``; at an iteration boundary (where
        # checkpoints are written) both are consumed, so they need no entry.
        return {
            "plays": dict(self._plays),
            "rewards": dict(self._rewards),
            "used": self._used,
            "iteration": self._iteration,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        if not state:
            return
        self._plays = {a: int(state["plays"][a]) for a in self.ARMS}
        self._rewards = {a: float(state["rewards"][a]) for a in self.ARMS}
        self._used = int(state["used"])
        self._iteration = int(state["iteration"])

    def propose(self, state: SearchState) -> Optional[Proposal]:
        if self._used >= self.budget:
            return None
        self._iteration += 1
        total_plays = sum(self._plays.values())

        def ucb(arm: str) -> float:
            if self._plays[arm] == 0:
                return float("inf")
            mean = self._rewards[arm] / self._plays[arm]
            return mean + self.search.exploration * np.sqrt(
                np.log(max(total_plays, 1)) / self._plays[arm]
            )

        arm = max(self.ARMS, key=ucb)
        n = min(self.batch_size, self.budget - self._used)
        configs = self._generate(arm, n, state)
        if not configs:
            arm = "uniform"
            configs = RandomSampler(state.space).sample(n, rng=state.rng)
        self._arm = arm
        self._before_front = {r.config for r in state.history.pareto_records()}
        return Proposal(configs=configs, source=self.source, iteration=self._iteration)

    def observe(self, state: SearchState, new_records: Sequence[EvaluationRecord]) -> None:
        self._used += len(new_records)
        after_front = {r.config for r in state.history.pareto_records()}
        gained = len(
            [r for r in new_records if r.config in after_front and r.config not in self._before_front]
        )
        self._plays[self._arm] += 1
        self._rewards[self._arm] += gained / max(len(new_records), 1)

    def _generate(self, arm: str, n: int, state: SearchState) -> List[Configuration]:
        history = state.history
        rng = state.rng
        space = state.space
        objectives = state.objectives
        if arm == "uniform" or len(history) == 0:
            return RandomSampler(space).sample(n, rng=rng)
        pareto = history.pareto_records()
        seen = set(state.evaluated_configs)
        out: List[Configuration] = []
        attempts = 0
        while len(out) < n and attempts < 20 * n:
            attempts += 1
            if arm == "mutate_pareto" and pareto:
                base = pareto[int(rng.integers(len(pareto)))].config
            elif arm == "mutate_best" and pareto:
                runtime_obj = objectives.names[-1]
                base = min(pareto, key=lambda r: r.metrics[runtime_obj]).config
            else:
                base = history.records[int(rng.integers(len(history)))].config
            values = base.to_dict()
            p = space.parameters[int(rng.integers(space.dimension))]
            values[p.name] = p.sample(rng)
            candidate = space.configuration(values)
            if candidate in seen:
                continue
            seen.add(candidate)
            out.append(candidate)
        return out


class BanditSearch(_BaseSearch):
    """OpenTuner-style multi-armed bandit over sub-strategies.

    Arms are simple generators (uniform random, mutation of a random Pareto
    point, mutation of the best-runtime point).  Arm selection follows the
    UCB1-style area-under-curve credit assignment used by OpenTuner, rewarding
    arms whose suggestions land on the current Pareto front.
    """

    source = "bandit"
    rng_label = "bandit-search"

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        evaluator: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        exploration: float = 1.4,
        seed: RandomState = None,
        **kwargs,
    ) -> None:
        super().__init__(space, objectives, evaluator, seed, **kwargs)
        self.exploration = float(exploration)

    def run(
        self,
        budget: int,
        batch_size: int = 8,
        *,
        resume_from: Optional[str] = None,
        max_iterations: Optional[int] = None,
    ) -> HyperMapperResult:
        """Run the bandit until ``budget`` evaluations are used."""
        if budget < batch_size:
            raise ValueError("budget must be at least batch_size")
        strategy = _BanditStrategy(self, budget, batch_size)
        return self._driver(
            strategy, n_random_samples=batch_size, max_iterations=max_iterations
        ).run(resume_from=resume_from)


# ---------------------------------------------------------------------------
# Scenario plugins: every baseline is a registered search algorithm.
# ---------------------------------------------------------------------------


class _ScenarioBaselineRun:
    """Adapter giving a baseline search the study-facing ``run`` contract."""

    def __init__(self, search: _BaseSearch, run_kwargs: Dict[str, object]) -> None:
        self.search = search
        self.run_kwargs = run_kwargs

    @property
    def executor(self) -> EvaluationExecutor:
        return self.search.executor

    def run(self, initial_history=None, resume_from: Optional[str] = None) -> HyperMapperResult:
        if initial_history is not None:
            raise ValueError("baseline searches do not support warm-start histories")
        return self.search.run(resume_from=resume_from, **self.run_kwargs)


def _require_budget(spec: Mapping[str, object], algorithm: str) -> int:
    budget = spec.get("budget")
    if budget is None:
        from repro.core.scenario import ScenarioError

        raise ScenarioError("/search/budget", f"required by the {algorithm!r} search algorithm")
    return int(budget)


def _baseline_builder(cls, algorithm: str, ctor_keys: Sequence[str], budget_required: bool = True):
    def _build(ctx: SearchContext) -> _ScenarioBaselineRun:
        spec = ctx.spec
        if ctx.overlap_fraction is not None:
            from repro.core.scenario import ScenarioError

            raise ScenarioError(
                "/executor/overlap_fraction",
                f"not supported by the {algorithm!r} search algorithm",
            )
        ctor = {k: spec[k] for k in ctor_keys if k in spec}
        search = cls(
            ctx.space,
            ctx.objectives,
            ctx.executor,
            seed=ctx.seed,
            checkpoint_path=ctx.checkpoint_path,
            checkpoint_every=ctx.checkpoint_every,
            history_path=ctx.history_path,
            stop_requested=ctx.stop_requested,
            **ctor,
        )
        run_kwargs: Dict[str, object] = {}
        if budget_required:
            run_kwargs["budget"] = _require_budget(spec, algorithm)
        elif spec.get("budget") is not None:
            run_kwargs["budget"] = int(spec["budget"])
        if cls is BanditSearch and "batch_size" in spec:
            run_kwargs["batch_size"] = int(spec["batch_size"])
        return _ScenarioBaselineRun(search, run_kwargs)

    # Marks this as the unmodified built-in builder: scenario validation
    # only applies its built-in key/type tables when the registered builder
    # still carries this marker (a user override relaxes validation to
    # pass-through).
    _build.builtin_search_name = algorithm
    return _build


register_search("random", _baseline_builder(RandomSearch, "random", ()))
register_search("grid", _baseline_builder(GridSearch, "grid", ("levels",), budget_required=False))
register_search("local", _baseline_builder(LocalSearch, "local", ("weights", "n_restarts")))
register_search(
    "evolutionary",
    _baseline_builder(EvolutionarySearch, "evolutionary", ("population_size", "mutation_rate")),
)
register_search("bandit", _baseline_builder(BanditSearch, "bandit", ("exploration",)))


__all__ = ["RandomSearch", "GridSearch", "LocalSearch", "EvolutionarySearch", "BanditSearch"]
