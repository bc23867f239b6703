"""The ``Study`` front door: compile a scenario, run it, persist artifacts.

A :class:`Study` turns a validated :class:`~repro.core.scenario.Scenario`
into the engine stack (:class:`~repro.core.engine.SearchDriver` +
:class:`~repro.core.executor.EvaluationExecutor`, via the search registry)
and returns a typed :class:`StudyResult`.  With a ``run_dir`` it persists a
**versioned run directory**::

    run_dir/
      scenario.json          # the normalized scenario (exact input)
      run.json               # run-dir version, status, engine metadata
      history.jsonl          # one evaluation record per line, streamed
      pareto.json            # final Pareto front (records)
      report.json            # summary derived from history.jsonl
      checkpoints/engine.json  # bounded engine checkpoint: run state plus the
                               # count and sha256 of the history prefix

that reloads into a :class:`StudyResult` *without re-running*
(:meth:`StudyResult.load`), and from which ``Study.resume`` (or ``python -m
repro resume``) continues a killed run bit-identically.

The persisted ``history.jsonl`` is the only copy of the records and the
single source of truth: the search driver streams it, checkpoints name a
prefix of it, a resume truncates it to that prefix and appends, and
:meth:`StudyResult.report` derives its summary statistics from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.engine import ActiveLearningReport, HyperMapperResult, SearchPreempted
from repro.core.evaluator import FunctionEvaluator
from repro.core.executor import EvaluationExecutor
from repro.core.faults import (
    FaultInjectingEvaluator,
    FaultPolicy,
    attempts_quarantined,
    summarize_faults,
)
from repro.core.durable import atomic_write_json, read_jsonl
from repro.core.history import EvaluationRecord, History
from repro.core.objectives import ObjectiveSet
from repro.core.pareto import hypervolume_2d
from repro.core.registry import (
    EVALUATOR_REGISTRY,
    SEARCH_REGISTRY,
    EvaluatorBinding,
    SearchContext,
    register_evaluator,
)
from repro.core.scenario import Scenario, ScenarioError
from repro.core.space import DesignSpace
from repro.utils.rng import derive_seed

#: Version stamp of the persisted run-directory layout.
RUN_DIR_VERSION = 1

#: File names inside a run directory.
SCENARIO_FILE = "scenario.json"
RUN_FILE = "run.json"
HISTORY_FILE = "history.jsonl"
PARETO_FILE = "pareto.json"
REPORT_FILE = "report.json"
CHECKPOINT_DIR = "checkpoints"
CHECKPOINT_FILE = "engine.json"


@register_evaluator("function")
def make_function_evaluator(
    spec: Mapping[str, Any], *, evaluate: Optional[Callable] = None, **_: Any
) -> EvaluatorBinding:
    """The host-injected black box: the scenario stays declarative, the
    callable is bound at :class:`Study` construction (``Study(scenario,
    evaluate=fn)``), exactly how HyperMapper's service wraps a client
    function.  Such scenarios must declare ``space`` and ``objectives``
    explicitly and cannot be resumed from the CLI (no callable to rebind).
    """
    if evaluate is None:
        raise ScenarioError(
            "/evaluator/type",
            "evaluator type 'function' needs a host-provided callable: "
            "construct the study as Study(scenario, evaluate=fn)",
        )
    return EvaluatorBinding(fn=evaluate, info={"type": "function"})


class SpecEvaluator(FunctionEvaluator):
    """A black box built by :func:`build_evaluator`, carrying its spec
    (:meth:`Scenario.evaluation_spec`) for the socket backend to ship, the
    design space its configurations belong to, and the factory's binding."""

    def __init__(self, spec: Dict[str, Any], binding: EvaluatorBinding, fn: Callable,
                 space: DesignSpace, objectives: ObjectiveSet) -> None:
        super().__init__(fn, objectives)
        self.spec = spec
        self.binding = binding
        self.space = space


def build_evaluator(
    scenario: Scenario, *, evaluate: Optional[Callable] = None, runner: Optional[Any] = None
) -> SpecEvaluator:
    """The black box of a scenario's evaluation spec.

    The ``evaluator`` section resolves through the evaluator registry, the
    declared space and objectives win over the evaluator's, and
    ``faults.inject`` wraps the black box in the seeded chaos harness.
    ``evaluate`` and ``runner`` are host bindings (a ``function``
    evaluator's callable, a shared slambench runner); socket workers build
    from the spec alone.
    """
    spec = scenario.evaluation_spec()
    factory = EVALUATOR_REGISTRY.get(spec["evaluator"]["type"])
    binding = factory(spec["evaluator"], evaluate=evaluate, runner=runner)
    space, objectives = scenario.build_space(), scenario.build_objectives()
    space = binding.space if space is None else space
    objectives = binding.objectives if objectives is None else objectives
    if space is None:
        raise ScenarioError("/space", "cannot be resolved: none declared or supplied")
    if objectives is None:
        raise ScenarioError("/objectives", "cannot be resolved: none declared or supplied")
    fn = binding.fn
    if "faults" in spec:
        fn = FaultInjectingEvaluator(fn, **spec["faults"]["inject"])
    return SpecEvaluator(spec, binding, fn, space, objectives)


def run_status(run_dir: Union[str, Path]) -> Optional[str]:
    """Status recorded in a run directory's ``run.json``.

    ``"complete"``, ``"degraded"`` (finished, but some configurations were
    quarantined with penalty metrics), ``"running"`` (killed mid-run or
    live), ``"parked"`` (preempted at an iteration boundary behind a
    resumable checkpoint — the live service's cheap-preemption state),
    ``"failed"``, or ``None`` when the directory holds no readable
    run metadata.  This is the cheap completeness probe :func:`run_in_dir`
    uses to decide whether a run needs (re-)running — no history is parsed.
    """
    path = Path(run_dir) / RUN_FILE
    if not path.exists():
        return None
    try:
        meta = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    status = meta.get("status")
    return None if status is None else str(status)


def run_residue(run_dir: Union[str, Path]) -> List[Path]:
    """Leftover temporary files a crash may have stranded in a run dir.

    Matches ``*.tmp`` (atomic-write temporaries, current and legacy naming)
    in the run dir and its checkpoint dir.  Pure probe — nothing is removed.
    """
    run_path = Path(run_dir)
    if not run_path.is_dir():
        return []
    return sorted(run_path.glob("*.tmp")) + sorted((run_path / CHECKPOINT_DIR).glob("*.tmp"))


def clean_run_residue(run_dir: Union[str, Path]) -> List[Path]:
    """Remove crash residue from a run directory (see :func:`run_residue`).

    Only safe when no writer is live in the directory — callers are the
    fresh/resume run setup (which owns the dir) and ``repro doctor``.
    Returns the paths removed.
    """
    removed = []
    for path in run_residue(run_dir):
        path.unlink(missing_ok=True)
        removed.append(path)
    return removed


def _load_history_jsonl(path: Path, objectives: ObjectiveSet, space: Optional[DesignSpace]) -> History:
    # A history killed mid-append ends in a torn final line; everything before
    # it is complete records, so resume/report paths drop the tail instead of
    # dying on json.JSONDecodeError (mid-file corruption still raises).
    dicts = read_jsonl(path, tolerate_torn_tail=True) if path.exists() else []
    return History.from_dicts(objectives, dicts, space=space)


@dataclass
class CompiledStudy:
    """The concrete engine stack a scenario compiles into."""

    space: DesignSpace
    objectives: ObjectiveSet
    executor: EvaluationExecutor
    search: Any
    binding: Optional[EvaluatorBinding]

    @property
    def acquisition_name(self) -> Optional[str]:
        acquisition = getattr(self.search, "acquisition", None)
        return type(acquisition).__name__ if acquisition is not None else None


def apply_constraints(scenario: Scenario, records: List[EvaluationRecord]) -> List[EvaluationRecord]:
    """Drop records violating the scenario's declared metric-bound constraints.

    Search-time feasibility is driven by the objectives' ``limit`` fields;
    the ``constraints`` section additionally filters what is *reported* as
    the Pareto front (``pareto.json``, ``report.json``, ``StudyResult.pareto``).
    """
    constraints = scenario.build_constraints()
    if len(constraints) == 0:
        return records
    return [r for r in records if constraints.is_feasible(r.config, r.metrics)]


@dataclass
class StudyResult:
    """Typed outcome of a study run (or of loading a persisted run dir)."""

    scenario: Scenario
    objectives: ObjectiveSet
    history: History
    pareto: List[EvaluationRecord]
    iterations: List[ActiveLearningReport]
    space: Optional[DesignSpace] = None
    run_dir: Optional[Path] = None
    engine_info: Dict[str, Any] = field(default_factory=dict)

    # -- analysis (mirrors HyperMapperResult) ---------------------------------
    def pareto_matrix(self) -> np.ndarray:
        """Objective matrix (natural units) of the final Pareto front."""
        if not self.pareto:
            return np.empty((0, len(self.objectives)))
        return np.array(
            [r.objective_values(self.objectives) for r in self.pareto], dtype=np.float64
        )

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

    def quality_curve(
        self, reference: Sequence[float], history: Optional[History] = None
    ) -> List[List[float]]:
        """Budget-to-quality series: ``[n_evaluations, hypervolume]`` pairs.

        After each evaluation of the persisted history (the single source of
        truth), the hypervolume of the feasible points seen so far w.r.t. a
        *canonical* (minimization-form) 2-objective reference point —
        typically one shared across every point of a sweep so the curves are
        comparable.  Empty for problems with ``!= 2`` objectives.  Pass an
        already-loaded ``history`` to avoid re-parsing ``history.jsonl``.
        """
        if len(self.objectives) != 2:
            return []
        if history is None:
            history = self.persisted_history()
        if len(history) == 0:
            return []
        matrix = history.objective_matrix(canonical=True)
        mask = history.feasible_mask()
        ref = np.asarray(reference, dtype=np.float64)
        # Incremental: the prefix hypervolume only changes when a new point
        # joins the running Pareto front, so recompute (over the front, not
        # the whole prefix) only then — O(n·front) instead of O(n²·log n).
        front: List[tuple] = []
        hv = 0.0
        curve: List[List[float]] = []
        for i in range(len(history)):
            if mask[i]:
                p = (float(matrix[i, 0]), float(matrix[i, 1]))
                if not any(q[0] <= p[0] and q[1] <= p[1] for q in front):
                    front = [q for q in front if not (p[0] <= q[0] and p[1] <= q[1])]
                    front.append(p)
                    hv = float(hypervolume_2d(np.asarray(front), ref))
            curve.append([i + 1, hv])
        return curve

    # -- fault accounting ------------------------------------------------------
    @property
    def is_degraded(self) -> bool:
        """Whether any configuration was quarantined (penalty metrics stand in).

        A degraded run *finished* — its artifacts are complete and loadable —
        but its history contains poison configurations whose metrics are the
        fault policy's penalty values, not genuine measurements.
        """
        return any(attempts_quarantined(r.attempts) for r in self.history.records)

    def fault_summary(self) -> Dict[str, Any]:
        """Aggregate retry/quarantine statistics (see
        :func:`repro.core.faults.summarize_faults`)."""
        return summarize_faults(self.persisted_history().records)

    # -- persistence-backed reporting ----------------------------------------
    def persisted_history(self) -> History:
        """The history as persisted in ``history.jsonl`` (single source of truth).

        Falls back to the in-memory history for ephemeral (dir-less) runs.
        """
        if self.run_dir is None:
            return self.history
        path = Path(self.run_dir) / HISTORY_FILE
        if not path.exists():  # artifacts moved/deleted after the run
            return self.history
        return _load_history_jsonl(path, self.objectives, self.space)

    def report(self) -> Dict[str, Any]:
        """Summary statistics derived from the persisted history."""
        history = self.persisted_history()
        pareto = apply_constraints(self.scenario, history.pareto_records(feasible_only=True))
        summary = history.summary()
        # summary() counts the unconstrained front; the report reflects the
        # constraint-filtered one.
        summary["n_pareto"] = len(pareto)
        best: Dict[str, Any] = {}
        for objective in self.objectives:
            record = None
            if pareto:
                record = min(
                    pareto, key=lambda r: objective.canonical(float(r.metrics[objective.name]))
                )
            best[objective.name] = (
                None
                if record is None
                else {"config": dict(record.config), "metrics": dict(record.metrics)}
            )
        return {
            "run_dir_version": RUN_DIR_VERSION,
            "scenario": self.scenario.name,
            "algorithm": self.scenario.search_spec["algorithm"],
            **summary,
            "n_iterations": len(self.iterations),
            "best": best,
            "iterations": [r.to_dict() for r in self.iterations],
            "engine": dict(self.engine_info),
            "faults": summarize_faults(history.records),
        }

    # -- loading --------------------------------------------------------------
    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> "StudyResult":
        """Reload a persisted run directory without re-running anything."""
        run_dir = Path(run_dir)
        scenario_path = run_dir / SCENARIO_FILE
        if not scenario_path.exists():
            raise FileNotFoundError(f"{run_dir} is not a study run directory (no {SCENARIO_FILE})")
        run_meta: Dict[str, Any] = {}
        run_path = run_dir / RUN_FILE
        if run_path.exists():
            run_meta = json.loads(run_path.read_text())
            version = int(run_meta.get("run_dir_version", -1))
            if version != RUN_DIR_VERSION:
                raise ValueError(
                    f"unsupported run-dir version {version} in {run_dir} "
                    f"(this build understands {RUN_DIR_VERSION})"
                )
        scenario = Scenario.from_file(scenario_path)
        space, objectives = resolve_problem(scenario)
        history = _load_history_jsonl(run_dir / HISTORY_FILE, objectives, space)
        iterations: List[ActiveLearningReport] = []
        engine_info: Dict[str, Any] = dict(run_meta.get("engine", {}))
        report_path = run_dir / REPORT_FILE
        if report_path.exists():
            report = json.loads(report_path.read_text())
            iterations = [ActiveLearningReport.from_dict(d) for d in report.get("iterations", [])]
            engine_info = dict(report.get("engine", engine_info))
        return cls(
            scenario=scenario,
            objectives=objectives,
            history=history,
            pareto=apply_constraints(scenario, history.pareto_records(feasible_only=True)),
            iterations=iterations,
            space=space,
            run_dir=run_dir,
            engine_info=engine_info,
        )


def resolve_problem(scenario: Scenario) -> tuple:
    """``(space, objectives)`` of a scenario: the declared ones, else those its
    evaluator supplies (building a slambench evaluator is cheap: its dataset
    renders on first use)."""
    space, objectives = scenario.build_space(), scenario.build_objectives()
    if space is None or objectives is None:
        evaluator = build_evaluator(scenario)
        return evaluator.space, evaluator.objectives
    return space, objectives


class Study:
    """A scenario bound to its host-side objects, ready to run.

    Parameters
    ----------
    scenario:
        A :class:`Scenario`, a raw mapping, or a path to a ``.json``/``.toml``
        scenario file.
    evaluate:
        The black-box callable for ``{"type": "function"}`` evaluators.
    runner:
        A pre-built :class:`~repro.slambench.runner.SlamBenchRunner` injected
        into the ``slambench`` evaluator so several studies share one
        simulation cache (accuracy is device-independent).  Socket studies
        ignore it: their workers build their own from the spec.
    executor:
        A pre-built :class:`~repro.core.executor.EvaluationExecutor` shared
        across studies (its memoized evaluations short-circuit duplicated
        bootstraps); overrides the scenario's ``executor``/``budget`` wiring.
    broker:
        A running :class:`~repro.core.transport.EvaluationBroker` the
        study-owned executor should drain its evaluations through when the
        scenario declares ``executor.backend: "socket"`` (the service
        passes its shared broker here).  The broker's lifecycle stays with
        its owner.
    """

    def __init__(
        self,
        scenario: Union[Scenario, Mapping[str, Any], str, Path],
        *,
        evaluate: Optional[Callable] = None,
        runner: Optional[Any] = None,
        executor: Optional[EvaluationExecutor] = None,
        broker: Optional[Any] = None,
    ) -> None:
        self.scenario = Scenario.coerce(scenario)
        self._evaluate = evaluate
        self._runner = runner
        self._executor = executor
        self._broker = broker

    # -- compilation ----------------------------------------------------------
    def compile(
        self,
        checkpoint_path: Optional[str] = None,
        history_path: Optional[str] = None,
        stop_requested: Optional[Callable[[], bool]] = None,
    ) -> CompiledStudy:
        """Resolve every plugin and build the engine stack (no run)."""
        scenario = self.scenario
        executor_spec = scenario.executor_spec
        binding: Optional[EvaluatorBinding] = None
        if self._executor is not None:
            # An injected (shared) executor already wraps the black box and
            # owns its fault handling; only the problem definition is needed.
            executor = self._executor
            space, objectives = resolve_problem(scenario)
        else:
            backend = executor_spec["backend"]
            # Socket workers build their own black box from the spec, so a
            # host runner would serve nothing there.
            evaluator = build_evaluator(
                scenario,
                evaluate=self._evaluate,
                runner=self._runner if backend != "socket" else None,
            )
            space, objectives, binding = evaluator.space, evaluator.objectives, evaluator.binding
            fault_policy = None
            faults_spec = scenario.faults_spec
            if faults_spec is not None:
                # The backoff-jitter seed derives from the scenario seed, like
                # the injection seed in the spec's inject section.
                fault_policy = FaultPolicy.from_spec(
                    faults_spec, seed=derive_seed(scenario.seed, "fault-policy")
                )
            executor = EvaluationExecutor(
                evaluator,
                n_workers=executor_spec["n_workers"],
                backend=backend,
                max_evaluations=scenario.budget_spec["max_evaluations"],
                fault_policy=fault_policy,
                transport=executor_spec.get("transport") if backend == "socket" else None,
                broker=self._broker if backend == "socket" else None,
            )

        search_spec = scenario.search_spec
        builder = SEARCH_REGISTRY.get(search_spec["algorithm"])
        ctx = SearchContext(
            space=space,
            objectives=objectives,
            executor=executor,
            spec=search_spec,
            seed=scenario.seed,
            overlap_fraction=executor_spec["overlap_fraction"],
            checkpoint_path=checkpoint_path,
            checkpoint_every=scenario.checkpoint_spec["every"],
            history_path=history_path,
            stop_requested=stop_requested,
        )
        return CompiledStudy(
            space=space,
            objectives=objectives,
            executor=executor,
            search=builder(ctx),
            binding=binding,
        )

    # -- execution ------------------------------------------------------------
    def run(
        self,
        run_dir: Optional[Union[str, Path]] = None,
        *,
        resume_from: Optional[str] = None,
        initial_history: Optional[History] = None,
        checkpoint_path: Optional[str] = None,
        stop_requested: Optional[Callable[[], bool]] = None,
    ) -> StudyResult:
        """Execute the study, persisting a run directory when ``run_dir`` is set.

        ``resume_from`` continues from an engine checkpoint file
        (:meth:`Study.resume` derives it from the run directory): the engine
        checks the history prefix the checkpoint names, cuts
        ``history.jsonl`` back to it and appends, and a refused resume
        changes neither file.  ``checkpoint_path`` overrides the default
        ``<run_dir>/checkpoints/engine.json`` location for dir-less runs.
        ``stop_requested`` is polled at iteration boundaries: a true return
        parks the run — a resumable checkpoint is written, ``run.json``
        records status ``"parked"``, and :class:`SearchPreempted` propagates
        to the caller (the live service's preemption path).
        """
        run_path = Path(run_dir) if run_dir is not None else None
        history_path: Optional[str] = None
        if run_path is not None:
            run_path.mkdir(parents=True, exist_ok=True)
            (run_path / CHECKPOINT_DIR).mkdir(exist_ok=True)
            self.scenario.save(run_path / SCENARIO_FILE)
            if checkpoint_path is None:
                checkpoint_path = str(run_path / CHECKPOINT_DIR / CHECKPOINT_FILE)
            history_path = str(run_path / HISTORY_FILE)

        # The engine opens history.jsonl only once search.run starts, so a
        # failing compile (unknown plugin, missing host callable, ...) leaves
        # the persisted history of an existing run directory alone.
        compiled = self.compile(
            checkpoint_path=checkpoint_path,
            history_path=history_path,
            stop_requested=stop_requested,
        )
        if run_path is not None:
            self._write_run_meta(run_path, status="running")
            if resume_from is None:
                # A fresh run into an existing directory must not leave a
                # prior run's artifacts around to be mixed with the new
                # (possibly partial) history if this run is interrupted.
                for stale in (PARETO_FILE, REPORT_FILE):
                    (run_path / stale).unlink(missing_ok=True)
                (run_path / CHECKPOINT_DIR / CHECKPOINT_FILE).unlink(missing_ok=True)
            clean_run_residue(run_path)
        n_evals_before = compiled.executor.n_evaluations
        try:
            engine_result: HyperMapperResult = compiled.search.run(
                initial_history=initial_history, resume_from=resume_from
            )
        except SearchPreempted:
            # Parked, not failed: a resumable checkpoint was written at the
            # iteration boundary before the driver raised.  The streamed
            # history stays exactly where a graceful kill would leave it
            # (no torn tail), so Study.resume continues bit-identically.
            if run_path is not None:
                self._write_run_meta(run_path, status="parked")
            raise
        except BaseException:
            if run_path is not None:
                self._write_run_meta(run_path, status="failed")
            raise
        finally:
            if self._executor is None:
                # The study owns this executor: release its worker pool even
                # when the engine raises, so a crashed study never leaks
                # processes.  Injected (shared) executors are the caller's.
                compiled.executor.close()

        # Executor shape is reported from the executor that actually ran
        # (an injected one may differ from the scenario's executor section).
        engine_info = {
            "algorithm": self.scenario.search_spec["algorithm"],
            "acquisition": compiled.acquisition_name,
            "n_workers": compiled.executor.n_workers,
            "backend": compiled.executor.backend,
            "overlap_fraction": self.scenario.executor_spec["overlap_fraction"],
            # The delta, not the counter: a shared (injected) executor's
            # counter spans every study that ran on it.
            "n_black_box_evaluations": compiled.executor.n_evaluations - n_evals_before,
        }
        result = StudyResult(
            scenario=self.scenario,
            objectives=compiled.objectives,
            history=engine_result.history,
            pareto=apply_constraints(self.scenario, engine_result.pareto),
            iterations=engine_result.iterations,
            space=compiled.space,
            run_dir=run_path,
            engine_info=engine_info,
        )
        if run_path is not None:
            self._finalize_run_dir(run_path, result)
        return result

    @classmethod
    def resume(
        cls,
        run_dir: Union[str, Path],
        *,
        evaluate: Optional[Callable] = None,
        runner: Optional[Any] = None,
        executor: Optional[EvaluationExecutor] = None,
        broker: Optional[Any] = None,
        stop_requested: Optional[Callable[[], bool]] = None,
    ) -> StudyResult:
        """Continue a persisted run from its engine checkpoint.

        A run directory whose checkpoint is already terminal simply replays
        to the identical result; a directory without a checkpoint (killed
        before the bootstrap finished) starts the scenario from scratch.
        ``stop_requested`` lets the resumed run itself be parked again (see
        :meth:`Study.run`).
        """
        run_path = Path(run_dir)
        scenario_path = run_path / SCENARIO_FILE
        if not scenario_path.exists():
            raise FileNotFoundError(f"{run_dir} is not a study run directory (no {SCENARIO_FILE})")
        study = cls(
            Scenario.from_file(scenario_path),
            evaluate=evaluate,
            runner=runner,
            executor=executor,
            broker=broker,
        )
        checkpoint = run_path / CHECKPOINT_DIR / CHECKPOINT_FILE
        resume_from = str(checkpoint) if checkpoint.exists() else None
        return study.run(run_dir=run_path, resume_from=resume_from, stop_requested=stop_requested)

    # -- run-dir plumbing ------------------------------------------------------
    def _write_run_meta(self, run_path: Path, status: str, engine: Optional[Dict] = None) -> None:
        meta = {
            "run_dir_version": RUN_DIR_VERSION,
            "scenario": self.scenario.name,
            "schema_version": self.scenario.schema_version,
            "status": status,
        }
        if engine is not None:
            meta["engine"] = engine
        atomic_write_json(run_path / RUN_FILE, meta)

    def _finalize_run_dir(self, run_path: Path, result: StudyResult) -> None:
        # history.jsonl is already complete and fsynced by the engine; only
        # the derived artifacts and the final status remain.
        pareto = [r.to_dict() for r in result.pareto]
        atomic_write_json(run_path / PARETO_FILE, pareto)
        atomic_write_json(run_path / REPORT_FILE, result.report())
        status = "degraded" if result.is_degraded else "complete"
        self._write_run_meta(run_path, status=status, engine=result.engine_info)


def run_in_dir(
    scenario: Union[Scenario, Mapping[str, Any], str, Path],
    run_dir: Union[str, Path],
    *,
    evaluate: Optional[Callable] = None,
    runner: Optional[Any] = None,
    broker: Optional[Any] = None,
    n_workers: Optional[int] = None,
    stop_requested: Optional[Callable[[], bool]] = None,
) -> Tuple[StudyResult, bool]:
    """Reload, resume or start the study of ``run_dir``: ``(result, reused)``.

    The one decision the sweep worker and the live service share:

    * a finished run dir (``complete``/``degraded``) is reloaded, not re-run,
      and ``reused`` is true;
    * a dir holding ``scenario.json`` (killed, parked or failed) continues
      through :meth:`Study.resume`, bit-identically and with the run's
      persisted ``n_workers``;
    * anything else runs ``scenario`` fresh, with ``executor.n_workers`` set
      to ``n_workers`` when one is given (worker counts change wall clock,
      never a history).

    ``evaluate``, ``runner``, ``broker`` and ``stop_requested`` are passed to
    the :class:`Study` that runs.
    """
    run_path = Path(run_dir)
    if run_status(run_path) in ("complete", "degraded"):
        return StudyResult.load(run_path), True
    if (run_path / SCENARIO_FILE).exists():
        result = Study.resume(
            run_path, evaluate=evaluate, runner=runner, broker=broker,
            stop_requested=stop_requested,
        )
        return result, False
    scenario = Scenario.coerce(scenario)
    executor_spec = scenario.executor_spec
    if n_workers is not None and executor_spec["n_workers"] != n_workers:
        executor_spec["n_workers"] = int(n_workers)
        scenario = scenario.replace(executor=executor_spec)
    study = Study(scenario, evaluate=evaluate, runner=runner, broker=broker)
    return study.run(run_dir=run_path, stop_requested=stop_requested), False


__all__ = [
    "RUN_DIR_VERSION",
    "CompiledStudy",
    "StudyResult",
    "Study",
    "run_in_dir",
    "resolve_problem",
    "build_evaluator",
    "SpecEvaluator",
    "apply_constraints",
    "run_status",
    "run_residue",
    "clean_run_residue",
    "make_function_evaluator",
]
