"""The composable search engine: loop kernel, run state, checkpoint/resume.

:class:`SearchDriver` is the policy-free kernel every search strategy in this
repository runs on — ``HyperMapper`` (Algorithm 1) as well as all the
baselines in :mod:`repro.core.baselines`.  It owns the mechanics the paper's
infrastructure section describes around the algorithm:

* the bootstrap phase (random samples or an explicit initial design),
* the one-time construction of the encoded configuration pool,
* dispatching evaluation batches through an
  :class:`~repro.core.executor.EvaluationExecutor` (serial, async, or async
  with *overlap*: the surrogate refits while stragglers of the previous
  batch are still running, mirroring how runs farmed out to a board fleet
  trickle back),
* history/rank bookkeeping (membership tests are integer pool-rank lookups,
  not configuration-list scans),
* per-iteration reports and the streamed ``history.jsonl``, and
* **checkpoint/resume**: bounded checkpoints written at iteration boundaries
  name the ``history.jsonl`` prefix they continue, and a killed run resumes
  from one bit-identically.

What to evaluate next is delegated to an
:class:`~repro.core.acquisition.AcquisitionStrategy`.  With the default
:class:`~repro.core.acquisition.PredictedPareto` strategy and a serial
executor the driver reproduces the original ``HyperMapper.run`` loop
bit-for-bit.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.acquisition import AcquisitionStrategy
from repro.core.durable import atomic_write_json
from repro.core.evaluator import EvaluationFunction, Evaluator
from repro.core.executor import EvalFuture, EvaluationExecutor, as_executor
from repro.core.history import (
    EvaluationRecord,
    History,
    HistoryWriter,
    config_from_dict,
    read_history_prefix,
)
from repro.core.objectives import ObjectiveSet
from repro.core.pareto import hypervolume_2d
from repro.core.sampling import EncodedPool, RandomSampler, Sampler, build_encoded_pool
from repro.core.space import Configuration, DesignSpace
from repro.core.surrogate import MultiObjectiveSurrogate
from repro.utils.rng import RandomState, as_generator, derive_seed
from repro.utils.serialization import load_json
from repro.utils.timing import Timer

#: Schema version of serialized checkpoints.  Version 2 names a prefix of
#: the history file instead of embedding the records; version 1 is refused.
CHECKPOINT_VERSION = 2

#: Environment knob: set to ``1`` to stamp per-iteration timing counters
#: (fit/predict/bitset/encode wall milliseconds) onto history records.  Off by
#: default so artifacts stay byte-identical to earlier releases.
RECORD_TIMING_ENV = "REPRO_RECORD_TIMING"


def record_timing_enabled() -> bool:
    """Whether history records should carry per-iteration timing counters."""
    return os.environ.get(RECORD_TIMING_ENV, "").strip().lower() in {"1", "true", "yes", "on"}


class SearchPreempted(RuntimeError):
    """The run was parked at an iteration boundary by its ``stop_requested`` hook.

    Raised *after* a resumable checkpoint has been written (when the driver
    has a ``checkpoint_path``), so the caller can resume the run later —
    bit-identically — through the normal ``resume_from`` path.  This is the
    cheap-preemption primitive the live optimization service uses to park a
    lower-priority study while a higher-priority submission takes its slot.
    """

    def __init__(self, reason: str = "preempted", iteration: int = 0) -> None:
        self.reason = reason
        self.iteration = iteration
        super().__init__(f"search parked at iteration boundary {iteration} ({reason})")


@dataclass
class ActiveLearningReport:
    """Per-iteration statistics of the search loop."""

    iteration: int
    n_predicted_pareto: int
    n_new_samples: int
    n_evaluations_total: int
    n_feasible_total: int
    n_pareto_total: int
    hypervolume: float
    surrogate_fit_seconds: float

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict representation."""
        return {
            "iteration": self.iteration,
            "n_predicted_pareto": self.n_predicted_pareto,
            "n_new_samples": self.n_new_samples,
            "n_evaluations_total": self.n_evaluations_total,
            "n_feasible_total": self.n_feasible_total,
            "n_pareto_total": self.n_pareto_total,
            "hypervolume": self.hypervolume,
            "surrogate_fit_seconds": self.surrogate_fit_seconds,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, float]) -> "ActiveLearningReport":
        """Inverse of :meth:`to_dict` (checkpoint restore)."""
        return cls(
            iteration=int(d["iteration"]),
            n_predicted_pareto=int(d["n_predicted_pareto"]),
            n_new_samples=int(d["n_new_samples"]),
            n_evaluations_total=int(d["n_evaluations_total"]),
            n_feasible_total=int(d["n_feasible_total"]),
            n_pareto_total=int(d["n_pareto_total"]),
            hypervolume=float(d["hypervolume"]),
            surrogate_fit_seconds=float(d["surrogate_fit_seconds"]),
        )


@dataclass
class HyperMapperResult:
    """Outcome of a search-engine run."""

    space: DesignSpace
    objectives: ObjectiveSet
    history: History
    pareto: List[EvaluationRecord]
    iterations: List[ActiveLearningReport]
    surrogate: Optional[MultiObjectiveSurrogate]

    def pareto_matrix(self) -> np.ndarray:
        """Objective matrix (natural units) of the final Pareto front."""
        if not self.pareto:
            return np.empty((0, len(self.objectives)))
        return np.array([r.objective_values(self.objectives) for r in self.pareto], dtype=np.float64)

    def best_by(self, objective_name: str) -> Optional[EvaluationRecord]:
        """Pareto record optimizing one objective."""
        if not self.pareto:
            return None
        obj = self.objectives[objective_name]
        return min(self.pareto, key=lambda r: obj.canonical(float(r.metrics[objective_name])))

    def hypervolume(self, reference: Sequence[float]) -> float:
        """Hypervolume of the final front w.r.t. a reference point (2 objectives)."""
        front = self.objectives.to_canonical(self.pareto_matrix())
        ref = self.objectives.to_canonical(np.asarray(reference, dtype=float).reshape(1, -1))[0]
        return hypervolume_2d(front, ref)

    def summary(self) -> Dict[str, object]:
        """Compact run summary."""
        s = self.history.summary()
        s["n_active_learning_iterations"] = len(self.iterations)
        s["n_pareto_final"] = len(self.pareto)
        return s


@dataclass
class SearchState:
    """Mutable per-run state shared between the driver and its strategy."""

    space: DesignSpace
    objectives: ObjectiveSet
    history: History
    rng: np.random.Generator
    timer: Timer
    encoded_pool: Optional[EncodedPool] = None
    max_samples_per_iteration: Optional[int] = None
    iteration: int = 0
    surrogate: Optional[MultiObjectiveSurrogate] = None
    #: Pool ranks of evaluated plus currently in-flight configurations —
    #: exactly what acquisition must not re-propose.
    claimed_ranks: set = field(default_factory=set)
    #: Every evaluated configuration (including out-of-pool warm-start entries).
    evaluated_configs: set = field(default_factory=set)
    #: Pool row of every history record, in record order (``-1`` outside
    #: the pool): looked up once per record, gathered by every refit.
    record_rows: List[int] = field(default_factory=list)
    #: Factory for fresh per-iteration surrogates (bound by the driver).
    surrogate_factory: Optional[Callable[[int], MultiObjectiveSurrogate]] = None

    def new_surrogate(self) -> MultiObjectiveSurrogate:
        """A fresh surrogate for the current iteration (deterministic seed)."""
        assert self.surrogate_factory is not None
        surrogate = self.surrogate_factory(self.iteration)
        self.surrogate = surrogate
        return surrogate

    def register(self, record: EvaluationRecord) -> None:
        """Track a newly added history record in the membership indexes."""
        self.evaluated_configs.add(record.config)
        if self.encoded_pool is not None:
            rank = self.encoded_pool.position(record.config)
            self.record_rows.append(-1 if rank is None else rank)
            if rank is not None:
                self.claimed_ranks.add(rank)

    def claim(self, config: Configuration, rank: Optional[int] = None) -> None:
        """Mark an in-flight configuration so acquisition will not re-propose it."""
        if self.encoded_pool is None:
            return
        if rank is None:
            rank = self.encoded_pool.position(config)
        if rank is not None:
            self.claimed_ranks.add(rank)


@dataclass
class _PendingEvaluation:
    """A submitted evaluation whose result has not been folded into history."""

    future: EvalFuture
    config: Configuration
    source: str
    iteration: int


class SearchDriver:
    """Policy-free search loop kernel.

    Parameters
    ----------
    space, objectives:
        The problem definition.
    executor:
        An :class:`~repro.core.executor.EvaluationExecutor`, or anything
        :func:`~repro.core.executor.as_executor` accepts (an evaluator or a
        plain callable, wrapped serially).
    acquisition:
        The proposal policy.  ``None`` runs only the bootstrap phase (pure
        random/grid designs).
    n_random_samples / initial_configs:
        Bootstrap: either ``n_random_samples`` draws from ``sampler`` or an
        explicit configuration list.  ``bootstrap_source`` labels the records.
    max_iterations:
        Iteration cap; ``None`` loops until the strategy stops proposing.
    pool_size:
        Encoded-pool size for pool-based strategies (see
        :func:`~repro.core.sampling.build_encoded_pool`).
    max_samples_per_iteration:
        Cap on new evaluations per iteration (enforced by the strategy).
    overlap_fraction:
        ``None`` gathers every batch completely before the next refit (the
        paper's serial semantics — bit-identical regardless of worker
        count).  A fraction ``f`` in ``(0, 1]`` blocks only on the first
        ``ceil(f * batch)`` evaluations (in submission order); the stragglers
        keep running while the surrogate refits and are folded into the
        history right after the next proposal.  Deterministic by
        construction: the cut is positional, never timing-based.
    checkpoint_path / checkpoint_every:
        When set, a resumable checkpoint is written after the bootstrap and
        after every ``checkpoint_every``-th iteration.  It holds bounded run
        state and names the prefix of ``history_path`` it continues.
    history_path:
        The run's ``history.jsonl``: :meth:`run` streams the warm-start
        records and then every record as it enters the history.  Defaults
        to ``checkpoint_path`` with the suffix ``.history.jsonl``; with
        neither path the history stays in memory.
    stop_requested:
        Optional zero-argument callable polled at every iteration boundary.
        When it returns true the driver writes a resumable checkpoint and
        raises :class:`SearchPreempted` — cooperative preemption for the
        live service (a parked run resumes bit-identically via
        ``run(resume_from=...)``).  Purely-bootstrap searches (no
        active-learning loop) have no boundaries and run to completion.
    seed / rng_label:
        Master seed; the run stream is ``derive_seed(seed, rng_label)``.
    """

    def __init__(
        self,
        space: DesignSpace,
        objectives: ObjectiveSet,
        executor: Union[EvaluationExecutor, Evaluator, EvaluationFunction],
        acquisition: Optional[AcquisitionStrategy] = None,
        *,
        n_random_samples: int = 0,
        initial_configs: Optional[Sequence[Configuration]] = None,
        bootstrap_source: str = "random",
        max_iterations: Optional[int] = None,
        pool_size: Optional[int] = 20_000,
        max_samples_per_iteration: Optional[int] = None,
        sampler: Optional[Sampler] = None,
        surrogate_kwargs: Optional[Mapping[str, object]] = None,
        overlap_fraction: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        compute_reports: bool = True,
        history_path: Optional[str] = None,
        stop_requested: Optional[Callable[[], bool]] = None,
        seed: RandomState = None,
        rng_label: str = "search",
    ) -> None:
        self.space = space
        self.objectives = objectives
        self.executor = as_executor(executor, objectives)
        self.acquisition = acquisition
        self.n_random_samples = int(n_random_samples)
        self.initial_configs = list(initial_configs) if initial_configs is not None else None
        self.bootstrap_source = bootstrap_source
        self.max_iterations = max_iterations
        self.pool_size = pool_size
        self.max_samples_per_iteration = max_samples_per_iteration
        self.sampler = sampler or RandomSampler(space)
        self.surrogate_kwargs = dict(surrogate_kwargs or {})
        if overlap_fraction is not None:
            if not 0.0 < overlap_fraction <= 1.0:
                raise ValueError("overlap_fraction must be in (0, 1]")
            if acquisition is not None and not acquisition.supports_overlap:
                raise ValueError(
                    f"acquisition {type(acquisition).__name__} does not support overlapped gathering"
                )
        self.overlap_fraction = overlap_fraction
        if checkpoint_path is not None and acquisition is not None and not acquisition.supports_checkpoint:
            raise ValueError(
                f"acquisition {type(acquisition).__name__} does not support checkpointing"
            )
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = max(int(checkpoint_every), 1)
        self.compute_reports = bool(compute_reports)
        if history_path is None and checkpoint_path is not None:
            history_path = str(Path(checkpoint_path).with_suffix(".history.jsonl"))
        self.history_path = history_path
        #: The open history stream while :meth:`run` executes.
        self._writer: Optional[HistoryWriter] = None
        #: Cooperative-preemption poll (see the class docstring).
        self.stop_requested = stop_requested
        self.seed = seed
        self.rng_label = rng_label
        # Checkpoint-compatibility fingerprint.  Only deterministic seed
        # types participate: deriving from a Generator seed would consume
        # from it (and such runs are not reproducible to begin with).
        if seed is None or isinstance(seed, (int, np.integer)):
            self._seed_fingerprint: Optional[int] = derive_seed(seed, rng_label)
        else:
            self._seed_fingerprint = None

    # -- surrogate factory ---------------------------------------------------------
    def _make_surrogate(self, iteration: int) -> MultiObjectiveSurrogate:
        kwargs = dict(self.surrogate_kwargs)
        kwargs.setdefault("n_estimators", 32)
        kwargs.setdefault("min_samples_leaf", 2)
        return MultiObjectiveSurrogate(
            self.space,
            self.objectives,
            random_state=derive_seed(self.seed, "surrogate", iteration),
            **kwargs,
        )

    # -- main entry point --------------------------------------------------------
    def run(
        self,
        initial_history: Optional[History] = None,
        resume_from: Optional[str] = None,
    ) -> HyperMapperResult:
        """Execute the search (fresh, or resumed from a checkpoint file)."""
        try:
            if resume_from is None:
                return self._run_fresh(initial_history)
            if initial_history is not None:
                raise ValueError(
                    "initial_history and resume_from are mutually exclusive: the "
                    "checkpoint already names the run's full history"
                )
            return self._run_resumed(resume_from)
        finally:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def _run_fresh(self, initial_history: Optional[History]) -> HyperMapperResult:
        rng = as_generator(derive_seed(self.seed, self.rng_label))
        if self.history_path is not None:
            self._writer = HistoryWriter(self.history_path).open()
        history = History(self.objectives, initial_history.records if initial_history is not None else None)
        for record in history:
            self._emit(record)
        timer = Timer()
        reports: List[ActiveLearningReport] = []

        # --- Phase 1: bootstrap -------------------------------------------------
        if self.initial_configs is not None:
            boot_configs = list(self.initial_configs)
        else:
            n_needed = max(self.n_random_samples - len(history), 0)
            boot_configs = self.sampler.sample(n_needed, rng=rng) if n_needed > 0 else []
        budget_stop = False
        if boot_configs:
            futures, accepted = self.executor.submit(boot_configs)
            metrics = self.executor.gather(futures)
            for f, (c, m) in zip(futures, zip(boot_configs[:accepted], metrics)):
                self._emit(history.add(c, m, source=self.bootstrap_source, iteration=0, attempts=f.attempts))
            budget_stop = accepted < len(boot_configs)

        # --- Phase 2: configuration pool ----------------------------------------
        # The pool is static for the whole run: encoded exactly once here,
        # fitted-from and predicted-over every iteration.  The rng state and
        # the number of records the include list comes from are snapshotted
        # so a resumed run rebuilds the exact same pool.
        pool_rng_state = rng.bit_generator.state
        pool_records = len(history)
        encoded_pool = self._build_pool(rng, history, pool_records)

        state = self._make_state(rng, history, timer, encoded_pool)
        if self.acquisition is not None:
            self.acquisition.reset(state)
        reference = self._hypervolume_reference(history)
        self._save_checkpoint(
            state, reports, [], pool_rng_state, pool_records, 0, budget_stop, reference
        )

        return self._loop(
            state,
            reports,
            reference,
            pending=[],
            pool_rng_state=pool_rng_state,
            pool_records=pool_records,
            start_iteration=1,
            budget_stop=budget_stop,
        )

    def _build_pool(
        self, rng: np.random.Generator, history: History, n_records: int
    ) -> Optional[EncodedPool]:
        """The run's encoded pool, or ``None`` when the strategy needs none.

        The include list is the distinct configurations of the first
        ``n_records`` history records in record order, then the default
        configuration: a function of the history file alone, so fresh and
        resumed runs build the same pool under any ``PYTHONHASHSEED``.
        """
        if self.acquisition is None or not self.acquisition.needs_pool:
            return None
        include = list(dict.fromkeys(r.config for r in itertools.islice(history, n_records)))
        include.append(self.space.default_configuration())
        return build_encoded_pool(self.space, self.pool_size, rng=rng, include=include)

    # -- the loop kernel -----------------------------------------------------------
    def _loop(
        self,
        state: SearchState,
        reports: List[ActiveLearningReport],
        reference: Optional[np.ndarray],
        pending: List[_PendingEvaluation],
        pool_rng_state: Optional[dict],
        pool_records: int,
        start_iteration: int,
        budget_stop: bool,
        converged: bool = False,
    ) -> HyperMapperResult:
        acquisition = self.acquisition
        record_timing = record_timing_enabled()
        iteration = start_iteration - 1
        while acquisition is not None and not budget_stop and not converged:
            if self.stop_requested is not None and self.stop_requested():
                # Park at the iteration boundary: the checkpoint written here
                # is byte-equivalent to the last end-of-iteration checkpoint
                # (nothing has mutated since), so resuming it continues the
                # run bit-identically — the same invariant the kill/resume
                # tests pin, minus the torn tail.
                self._save_checkpoint(
                    state, reports, pending, pool_rng_state, pool_records,
                    iteration, budget_stop, reference,
                )
                raise SearchPreempted("stop requested", iteration)
            iteration += 1
            if self.max_iterations is not None and iteration > self.max_iterations:
                break
            state.iteration = iteration
            pool = state.encoded_pool
            kernel_before = pool.bitset_kernel_seconds if pool is not None else 0.0
            proposal = acquisition.propose(state)
            timing = None
            if record_timing:
                kernel_after = pool.bitset_kernel_seconds if pool is not None else 0.0
                timing = {
                    "fit_ms": state.timer.last("fit") * 1e3,
                    "predict_ms": state.timer.last("predict") * 1e3,
                    "bitset_ms": (kernel_after - kernel_before) * 1e3,
                    "encode_ms": state.timer.last("encode") * 1e3,
                }
            # Stragglers from the previous batch ran concurrently with the
            # refit above; fold them into the history now.
            n_drained = self._drain_pending(state, pending)
            if proposal is None:
                break
            if not proposal.configs:
                converged = True
                self._append_report(
                    reports, iteration, proposal.n_candidates, n_drained, state, reference
                )
                # The convergence flag makes the checkpoint terminal: a
                # resumed run must not re-open the search with a fresh
                # surrogate the original run never fitted.
                self._save_checkpoint(
                    state, reports, pending, pool_rng_state, pool_records, iteration,
                    budget_stop, reference, converged=True,
                )
                break
            configs = proposal.configs
            source = proposal.source
            iter_tag = proposal.iteration if proposal.iteration is not None else iteration
            futures, accepted = self.executor.submit(configs)
            if accepted < len(configs):
                budget_stop = True
            ranks = proposal.pool_ranks
            for j, (f, c) in enumerate(zip(futures, configs)):
                state.claim(c, ranks[j] if ranks is not None and j < len(ranks) else None)
            n_wait = accepted
            if self.overlap_fraction is not None and accepted > 0:
                n_wait = min(max(int(math.ceil(self.overlap_fraction * accepted)), 1), accepted)
            results = self.executor.gather(futures, count=n_wait)
            new_records: List[EvaluationRecord] = []
            for f, (c, m) in zip(futures, zip(configs[:n_wait], results)):
                record = state.history.add(
                    c, m, source=source, iteration=iter_tag, attempts=f.attempts, timing=timing
                )
                state.register(record)
                self._emit(record)
                new_records.append(record)
            for f, c in zip(futures[n_wait:accepted], configs[n_wait:accepted]):
                pending.append(_PendingEvaluation(f, c, source, iter_tag))
            if new_records:
                # An empty accepted prefix only happens on budget exhaustion;
                # the loop ends right after, so strategies never see it.
                acquisition.observe(state, new_records)
            # n_new counts what actually entered the history this iteration
            # (drained stragglers + the gathered prefix), so consecutive
            # reports' n_evaluations_total deltas always match it.
            self._append_report(
                reports,
                iteration,
                proposal.n_candidates,
                n_drained + len(new_records),
                state,
                reference,
            )
            if iteration % self.checkpoint_every == 0 or budget_stop:
                self._save_checkpoint(
                    state, reports, pending, pool_rng_state, pool_records, iteration, budget_stop, reference
                )
        self._drain_pending(state, pending)
        if self._writer is not None:
            # On disk before the caller can mark the run complete.
            self._writer.sync()
        if budget_stop:
            # Budget exhausted for good: make the final history durable.  On
            # normal completion the last iteration-boundary checkpoint (with
            # its recorded in-flight batch) stays the resume point — a
            # post-drain snapshot would let a resumed refit see straggler
            # results earlier than the uninterrupted run did.
            self._save_checkpoint(
                state, reports, [], pool_rng_state, pool_records, iteration, budget_stop, reference
            )

        pareto = state.history.pareto_records(feasible_only=True)
        return HyperMapperResult(
            space=self.space,
            objectives=self.objectives,
            history=state.history,
            pareto=pareto,
            iterations=reports,
            surrogate=state.surrogate,
        )

    def _drain_pending(self, state: SearchState, pending: List[_PendingEvaluation]) -> int:
        """Fold every pending straggler into the history (submission order)."""
        if not pending:
            return 0
        self.executor.gather([p.future for p in pending])
        for p in pending:
            record = state.history.add(p.config, p.future.result(), source=p.source, iteration=p.iteration, attempts=p.future.attempts)
            state.register(record)
            self._emit(record)
        n_drained = len(pending)
        pending.clear()
        return n_drained

    def _emit(self, record: EvaluationRecord) -> None:
        """Append a record that just entered the history to the history file."""
        if self._writer is not None:
            self._writer.write(record)

    # -- state construction ---------------------------------------------------------
    def _make_state(
        self,
        rng: np.random.Generator,
        history: History,
        timer: Timer,
        encoded_pool: Optional[EncodedPool],
    ) -> SearchState:
        state = SearchState(
            space=self.space,
            objectives=self.objectives,
            history=history,
            rng=rng,
            timer=timer,
            encoded_pool=encoded_pool,
            max_samples_per_iteration=self.max_samples_per_iteration,
            surrogate_factory=self._make_surrogate,
        )
        for record in history.records:
            state.register(record)
        return state

    # -- reporting ------------------------------------------------------------
    def _hypervolume_reference(self, history: History) -> Optional[np.ndarray]:
        if len(self.objectives) != 2 or len(history) == 0:
            return None
        values = history.objective_matrix(canonical=True)
        # A reference slightly worse than the worst observed point.
        return values.max(axis=0) * 1.1 + 1e-9

    def _append_report(
        self,
        reports: List[ActiveLearningReport],
        iteration: int,
        n_predicted: int,
        n_new: int,
        state: SearchState,
        reference: Optional[np.ndarray],
    ) -> None:
        if not self.compute_reports:
            return
        history = state.history
        pareto = history.pareto_records(feasible_only=True)
        hv = float("nan")
        if reference is not None and pareto:
            front = history.objectives.to_canonical(
                np.array([r.objective_values(history.objectives) for r in pareto])
            )
            hv = hypervolume_2d(front, reference)
        reports.append(
            ActiveLearningReport(
                iteration=iteration,
                n_predicted_pareto=n_predicted,
                n_new_samples=n_new,
                n_evaluations_total=len(history),
                n_feasible_total=history.n_feasible(),
                n_pareto_total=len(pareto),
                hypervolume=hv,
                # The *last* fit lap: this iteration's own refit duration
                # (the seed code reported the running mean by mistake).
                surrogate_fit_seconds=state.timer.last("fit"),
            )
        )

    # -- checkpointing ------------------------------------------------------------
    def _save_checkpoint(
        self,
        state: SearchState,
        reports: List[ActiveLearningReport],
        pending: List[_PendingEvaluation],
        pool_rng_state: Optional[dict],
        pool_records: int,
        iteration: int,
        budget_stop: bool,
        reference: Optional[np.ndarray] = None,
        converged: bool = False,
    ) -> None:
        if self.checkpoint_path is None:
            return
        writer = self._writer
        assert writer is not None and writer.n_records == len(state.history)
        # Durable before referenced: every record the checkpoint names is on
        # disk before the checkpoint exists.
        writer.sync()
        checkpoint_dir = os.path.dirname(os.path.abspath(self.checkpoint_path))
        n_pending_fresh = sum(1 for p in pending if p.future.fresh)
        payload = {
            "version": CHECKPOINT_VERSION,
            "rng_label": self.rng_label,
            "seed_fingerprint": self._seed_fingerprint,
            "iteration": iteration,
            "rng_state": state.rng.bit_generator.state,
            "pool_rng_state": pool_rng_state,
            # Relative to the checkpoint's directory, so a moved run dir
            # still resumes.
            "history_file": os.path.relpath(os.path.abspath(writer.path), checkpoint_dir),
            "history_records": writer.n_records,
            "history_sha256": writer.sha256,
            "pool_records": pool_records,
            "reports": [r.to_dict() for r in reports],
            "pending": [
                {"config": dict(p.config), "source": p.source, "iteration": p.iteration}
                for p in pending
            ],
            # Budget units the resumed executor must start from; pending
            # evaluations are *not* counted here — they are resubmitted (and
            # re-counted) on resume.
            "budget_used": self.executor.n_evaluations - n_pending_fresh,
            "budget_stop": bool(budget_stop),
            "converged": bool(converged),
            # The hypervolume reference is fixed right after bootstrap; a
            # resumed run must reuse it, not re-derive it from a longer
            # history.
            "hypervolume_reference": None if reference is None else [float(x) for x in reference],
            "strategy": self.acquisition.state_dict() if self.acquisition is not None else {},
        }
        # Atomic + fsync'd: a kill (or power cut) mid-checkpoint leaves the
        # previous checkpoint intact, never a torn one.
        atomic_write_json(self.checkpoint_path, payload)

    def _run_resumed(self, path: str) -> HyperMapperResult:
        # Every check runs before a file is opened for writing: a refused
        # resume changes nothing.
        data = load_json(path)
        version = int(data.get("version", -1)) if isinstance(data, dict) else -1
        if version != CHECKPOINT_VERSION:
            hint = "; version 1 embedded the history: re-run the study fresh" if version == 1 else ""
            raise ValueError(f"unsupported checkpoint version {version} in {path!r}{hint}")
        # A checkpoint resumed by a differently-configured driver would not
        # diverge loudly — the rng streams and surrogate seeds simply come
        # out different — so compatibility is checked up front.
        if data.get("rng_label") != self.rng_label:
            raise ValueError(
                f"checkpoint {path!r} was written by a {data.get('rng_label')!r} run, "
                f"cannot resume it with a {self.rng_label!r} driver"
            )
        saved_fingerprint = data.get("seed_fingerprint")
        if (
            saved_fingerprint is not None
            and self._seed_fingerprint is not None
            and int(saved_fingerprint) != self._seed_fingerprint
        ):
            raise ValueError(
                f"checkpoint {path!r} was written under a different master seed"
            )
        history_file = os.path.join(os.path.dirname(os.path.abspath(path)), data["history_file"])
        n_records = int(data["history_records"])
        prefix = read_history_prefix(history_file, n_records, data["history_sha256"])
        if self.history_path is not None:
            # Continue the checkpoint's own file in place, or start a new
            # file with the verified prefix.
            in_place = os.path.exists(self.history_path) and os.path.samefile(
                history_file, self.history_path
            )
            self._writer = HistoryWriter(self.history_path).open(prefix, n_records, in_place=in_place)

        rng = np.random.default_rng()
        rng.bit_generator.state = data["rng_state"]
        history = History.from_dicts(
            self.objectives, [json.loads(line) for line in prefix.splitlines()], space=self.space
        )
        timer = Timer()
        reports = [ActiveLearningReport.from_dict(r) for r in data["reports"]]

        # Rebuild the pool exactly as the original run did: same rng
        # snapshot, same leading records.
        pool_rng_state = data["pool_rng_state"]
        pool_records = int(data["pool_records"])
        pool_rng = np.random.default_rng()
        pool_rng.bit_generator.state = pool_rng_state
        encoded_pool = self._build_pool(pool_rng, history, pool_records)

        self.executor.restore_consumed(int(data.get("budget_used", 0)))
        for record in history.records:
            self.executor.prime(record.config, record.metrics)

        state = self._make_state(rng, history, timer, encoded_pool)
        if self.acquisition is not None:
            self.acquisition.reset(state)
            self.acquisition.load_state_dict(data.get("strategy", {}))
        saved_reference = data.get("hypervolume_reference")
        reference = (
            np.asarray(saved_reference, dtype=np.float64)
            if saved_reference is not None
            else self._hypervolume_reference(history)
        )

        # Resubmit evaluations that were in flight when the checkpoint was
        # written (their results never landed).
        pending: List[_PendingEvaluation] = []
        budget_stop = bool(data.get("budget_stop", False))
        converged = bool(data.get("converged", False))
        pending_specs = data.get("pending", [])
        if pending_specs:
            configs = [config_from_dict(self.space, p["config"]) for p in pending_specs]
            futures, accepted = self.executor.submit(configs)
            if accepted < len(configs):
                budget_stop = True
            for f, c, spec in zip(futures, configs, pending_specs):
                state.claim(c)
                pending.append(_PendingEvaluation(f, c, str(spec["source"]), int(spec["iteration"])))

        return self._loop(
            state,
            reports,
            reference,
            pending=pending,
            pool_rng_state=pool_rng_state,
            pool_records=pool_records,
            start_iteration=int(data["iteration"]) + 1,
            budget_stop=budget_stop,
            converged=converged,
        )


__all__ = [
    "ActiveLearningReport",
    "HyperMapperResult",
    "SearchState",
    "SearchDriver",
    "SearchPreempted",
    "CHECKPOINT_VERSION",
    "RECORD_TIMING_ENV",
    "record_timing_enabled",
]
