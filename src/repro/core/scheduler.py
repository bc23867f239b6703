"""Multi-tenant study scheduling on one shared worker budget.

The paper's tool runs as a *service*: many explorations — different users,
devices, seeds — queue up and share one evaluation fleet (83 boards in the
crowd scenario).  :class:`StudyScheduler` is that layer: a queue of scenario
submissions is admitted into a bounded number of concurrent study slots,
each study runs crash-isolated (one failed study never poisons its
siblings), and an optional total worker budget is split fair-share across
the slots.

Determinism is inherited, not hoped for: every study runs on its own
engine/executor stack, whose history is bit-identical for any worker count
(see :mod:`repro.core.executor`), so a sweep with ``max_concurrent_studies=k``
produces *per-point* results identical to running each scenario alone —
the invariant the sweep tests pin down.

Admission order is a pluggable policy (:data:`SCHEDULE_POLICY_REGISTRY`):

* ``"fifo"`` — strict submission order.
* ``"fair_share"`` (default) — round-robin across tenants: the tenant with
  the fewest admitted studies goes next, ties broken by submission order.
  With a single tenant this degenerates to FIFO.
* ``"preempting"`` — highest priority first (submissions carry an integer
  ``priority``, higher wins; missing = 0), ties broken by submission order.
  The live service pairs this admission order with actual preemption:
  when every slot is busy, a strictly lower-priority *running* study is
  parked at its next iteration boundary to make room (see
  :mod:`repro.core.service`).

Policies only choose *which queued study starts next*; they never affect a
study's result.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

from repro.core.registry import SCHEDULE_POLICY_REGISTRY, register_schedule_policy
from repro.core.scenario import Scenario
from repro.core.study import SCENARIO_FILE, Study, StudyResult, run_status

_T = TypeVar("_T")
_R = TypeVar("_R")


@register_schedule_policy("fifo")
def fifo_policy(
    pending: Sequence["StudySubmission"], started_per_tenant: Mapping[str, int]
) -> int:
    """Admit strictly in submission order."""
    return 0


@register_schedule_policy("fair_share")
def fair_share_policy(
    pending: Sequence["StudySubmission"], started_per_tenant: Mapping[str, int]
) -> int:
    """Admit the tenant with the fewest studies admitted so far.

    Ties break by queue position, so a single tenant (e.g. one sweep) sees
    plain FIFO and the outcome is deterministic for any completion timing.
    """
    best = 0
    best_key = None
    for i, submission in enumerate(pending):
        key = (started_per_tenant.get(submission.tenant, 0), i)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def submission_priority(submission: Any) -> int:
    """Admission priority of a submission (higher wins; absent/None = 0)."""
    priority = getattr(submission, "priority", 0)
    return 0 if priority is None else int(priority)


@register_schedule_policy("preempting")
def preempting_policy(
    pending: Sequence["StudySubmission"], started_per_tenant: Mapping[str, int]
) -> int:
    """Admit the highest-priority submission; ties break by queue position.

    The admission half of the live service's priority scheme — the policy
    itself never parks anything (policies only pick from the *pending*
    queue); the service layer performs the matching preemption of running
    studies.  Usable as a plain batch policy too: a priority-ordered FIFO.
    """
    best = 0
    best_key = None
    for i, submission in enumerate(pending):
        key = (-submission_priority(submission), i)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


class MapOrderedError(RuntimeError):
    """One or more ``map_ordered`` items failed — after every item ran.

    ``failures`` holds ``(index, exception)`` pairs in item order, so a
    crowd-fleet caller can see *every* failing device at once instead of
    losing the in-flight work of the fleet to the first flaky one.
    """

    def __init__(self, failures: Sequence[Tuple[int, BaseException]], n_items: int) -> None:
        self.failures: List[Tuple[int, BaseException]] = list(failures)
        preview = "; ".join(
            f"item {i}: {type(e).__name__}: {e}" for i, e in self.failures[:3]
        )
        more = "" if len(self.failures) <= 3 else f" (+{len(self.failures) - 3} more)"
        super().__init__(f"{len(self.failures)} of {n_items} items failed: {preview}{more}")


def map_ordered(
    fn: Callable[[_T], _R], items: Sequence[_T], *, max_concurrent: int = 1
) -> List[_R]:
    """Run ``fn`` over ``items`` on a thread pool, results in item order.

    The deterministic fan-out primitive the crowd app uses for its device
    fleet: tasks run concurrently but results always come back in submission
    order, so downstream consumers (database uploads, reports) see the same
    sequence as a serial run.  ``max_concurrent <= 1`` is the inline serial
    path.

    Failures are *drained, not fail-fast*: every item runs to completion
    (serial and concurrent paths alike), then a single
    :class:`MapOrderedError` reports **all** failing items — no in-flight
    work is abandoned and no failure is shadowed by an earlier one.
    """
    items = list(items)
    results: List[Optional[_R]] = [None] * len(items)
    failures: List[Tuple[int, BaseException]] = []
    if max_concurrent <= 1 or len(items) <= 1:
        for i, item in enumerate(items):
            try:
                results[i] = fn(item)
            except Exception as exc:  # noqa: BLE001 — collected, then re-raised
                failures.append((i, exc))
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=int(max_concurrent)) as pool:
            futures = [pool.submit(fn, item) for item in items]
            for i, future in enumerate(futures):
                try:
                    results[i] = future.result()
                except Exception as exc:  # noqa: BLE001
                    failures.append((i, exc))
    if failures:
        raise MapOrderedError(failures, len(items))
    return results


@dataclass
class StudySubmission:
    """One queued study: a scenario plus its host-side bindings.

    Attributes
    ----------
    key:
        Caller-chosen identifier (a sweep uses the point id); reported back
        on the outcome.
    scenario:
        Anything :meth:`~repro.core.scenario.Scenario.coerce` accepts.
    run_dir:
        Optional run directory for the PR-4 versioned artifact layout.
    tenant:
        Fair-share accounting bucket (one tenant per submitting client).
    resume:
        When set and ``run_dir`` already holds a complete run, the result is
        reloaded without re-running; an incomplete run dir resumes from its
        checkpoint; anything else runs fresh.
    priority:
        Admission priority (higher wins) read by the ``"preempting"``
        policy; other policies ignore it.
    evaluate / runner / executor:
        Host bindings forwarded to :class:`~repro.core.study.Study`.
    """

    key: str
    scenario: Union[Scenario, Mapping[str, Any], str, Path]
    run_dir: Optional[Union[str, Path]] = None
    tenant: str = "default"
    resume: bool = False
    priority: int = 0
    evaluate: Optional[Callable] = None
    runner: Any = None
    executor: Any = None


@dataclass
class StudyOutcome:
    """What became of one submission (always returned, never raised).

    ``status`` is ``"complete"``, ``"degraded"`` (the study finished but
    quarantined configurations carry penalty metrics — a usable, second-class
    result), or ``"failed"``.
    """

    key: str
    status: str  # "complete" | "degraded" | "failed"
    result: Optional[StudyResult] = None
    error: Optional[str] = None
    tenant: str = "default"
    #: The run dir already held a complete run and was reloaded, not re-run.
    reused: bool = False


class StudyScheduler:
    """Run many studies concurrently on a bounded slot/worker budget.

    Parameters
    ----------
    max_concurrent_studies:
        Number of studies running at once (slots).
    worker_budget:
        Total evaluation workers shared by all slots; each admitted study's
        executor is capped at ``max(1, worker_budget // max_concurrent_studies)``
        workers (fair share).  ``None`` leaves every scenario's own
        ``executor.n_workers`` untouched.  Either way each point's history is
        bit-identical to a standalone run — worker counts never change
        results, only wall clock.
    policy:
        Admission policy name (:data:`SCHEDULE_POLICY_REGISTRY`) or callable.
    study_max_retries:
        Additional attempts for a study whose run *raised* (``0`` = none).
        Retries take the resume path when the study has a run directory, so
        only the missing work re-runs and the resumed history is identical
        to an uninterrupted run.  Degraded studies are terminal, not retried
        (their artifacts are complete; re-running would re-quarantine the
        same configurations — the fault trace is deterministic).
    retry_backoff_s:
        Base delay before study-level retry ``k`` (``backoff * 2**k``).
    """

    def __init__(
        self,
        max_concurrent_studies: int = 1,
        *,
        worker_budget: Optional[int] = None,
        policy: Union[str, Callable] = "fair_share",
        study_max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        broker: Optional[Any] = None,
    ) -> None:
        if int(max_concurrent_studies) < 1:
            raise ValueError("max_concurrent_studies must be >= 1")
        if worker_budget is not None and int(worker_budget) < 1:
            raise ValueError("worker_budget must be >= 1 (or None)")
        if int(study_max_retries) < 0:
            raise ValueError("study_max_retries must be >= 0")
        if float(retry_backoff_s) < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.max_concurrent_studies = int(max_concurrent_studies)
        self.worker_budget = None if worker_budget is None else int(worker_budget)
        self.policy = SCHEDULE_POLICY_REGISTRY.get(policy) if isinstance(policy, str) else policy
        self.study_max_retries = int(study_max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        # A shared EvaluationBroker: every socket-backend study scheduled here
        # drains its evaluations through the one worker fleet. Lifecycle stays
        # with the caller (the scheduler never shuts it down).
        self.broker = broker

    @property
    def workers_per_study(self) -> Optional[int]:
        """Fair-share worker allotment per slot (``None`` = scenario's own)."""
        if self.worker_budget is None:
            return None
        return max(1, self.worker_budget // self.max_concurrent_studies)

    # -- execution -------------------------------------------------------------
    def run(
        self,
        submissions: Sequence[StudySubmission],
        on_outcome: Optional[Callable[[StudyOutcome], None]] = None,
    ) -> List[StudyOutcome]:
        """Run every submission; outcomes come back in submission order.

        Failures are *contained*: a study that raises produces a ``"failed"``
        outcome (with the error message) while its siblings keep running —
        nothing short of the scheduler process dying stops the queue.
        ``on_outcome`` fires in the scheduling thread as each study settles.
        """
        pending: List[tuple] = [(i, s) for i, s in enumerate(submissions)]
        outcomes: List[Optional[StudyOutcome]] = [None] * len(pending)
        started_per_tenant: Dict[str, int] = {}
        if not pending:
            return []
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_concurrent_studies
        ) as pool:
            running: Dict[concurrent.futures.Future, int] = {}
            while pending or running:
                while pending and len(running) < self.max_concurrent_studies:
                    pick = self.policy([s for _, s in pending], dict(started_per_tenant))
                    if not isinstance(pick, int) or not 0 <= pick < len(pending):
                        raise ValueError(
                            f"schedule policy returned invalid index {pick!r} "
                            f"for a queue of {len(pending)}"
                        )
                    index, submission = pending.pop(pick)
                    started_per_tenant[submission.tenant] = (
                        started_per_tenant.get(submission.tenant, 0) + 1
                    )
                    running[pool.submit(self._run_one, submission)] = index
                done, _ = concurrent.futures.wait(
                    running, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    index = running.pop(future)
                    outcome = future.result()  # _run_one never raises
                    outcomes[index] = outcome
                    if on_outcome is not None:
                        on_outcome(outcome)
        return [o for o in outcomes if o is not None]

    def drain(
        self,
        claim: Callable[[], Union[StudySubmission, float, None]],
        *,
        settle: Optional[Callable[[StudyOutcome], None]] = None,
        max_studies: Optional[int] = None,
        wait: Callable[[float], None] = time.sleep,
    ) -> List[StudyOutcome]:
        """Pull studies from a claim source until it reports exhaustion.

        The lease-backed claiming mode: instead of a fixed submission list,
        ``claim()`` is consulted whenever a slot is free and returns

        * a :class:`StudySubmission` — run it (crash-isolated, with the
          scheduler's retry policy);
        * a ``float`` — nothing claimable *right now* (e.g. every remaining
          point is leased by a live sibling worker); retry after that many
          seconds;
        * ``None`` — the source is exhausted; finish in-flight studies and
          return.

        ``settle(outcome)`` fires in the scheduling thread as each study
        finishes — the sweep worker uses it to record the result in the
        manifest under its lease's fencing generation *before* the next
        claim.  ``max_studies`` bounds how many claims this call makes.
        Outcomes are returned in completion order (claim order is racy by
        construction — siblings are draining the same source).
        """
        outcomes: List[StudyOutcome] = []
        n_claimed = 0
        exhausted = False
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_concurrent_studies
        ) as pool:
            running: Dict[concurrent.futures.Future, StudySubmission] = {}
            while True:
                delay: Optional[float] = None
                while (
                    not exhausted
                    and len(running) < self.max_concurrent_studies
                    and (max_studies is None or n_claimed < max_studies)
                ):
                    nxt = claim()
                    if nxt is None:
                        exhausted = True
                    elif isinstance(nxt, (int, float)):
                        delay = max(float(nxt), 0.0)
                        break
                    else:
                        n_claimed += 1
                        running[pool.submit(self._run_one, nxt)] = nxt
                if not running:
                    if exhausted or (max_studies is not None and n_claimed >= max_studies):
                        break
                    wait(delay if delay is not None else 0.05)
                    continue
                done, _ = concurrent.futures.wait(
                    running, return_when=concurrent.futures.FIRST_COMPLETED, timeout=delay
                )
                for future in done:
                    running.pop(future)
                    outcome = future.result()  # _run_one never raises
                    outcomes.append(outcome)
                    if settle is not None:
                        settle(outcome)
        return outcomes

    def execute_one(self, submission: StudySubmission) -> StudyOutcome:
        """Run a single submission crash-isolated (never raises)."""
        return self._run_one(submission)

    def serve(self, state_dir: Union[str, Path], **service_kwargs: Any):
        """Open this scheduler as an always-on, multi-tenant live queue.

        Unlike :meth:`run` (closed batch: exits when the submission list
        drains) the returned :class:`~repro.core.service.OptimizationService`
        keeps accepting :class:`StudySubmission`-shaped work while studies
        run — its dispatcher blocks on a condition variable when the queue
        is momentarily empty instead of exiting.  The scheduler's slot
        count, worker budget and admission policy carry over; quotas,
        preemption and crash-safe queue journaling are the service's
        (``state_dir`` holds the journal and one run dir per study).  The
        service is returned *started*; call ``shutdown()`` (or use it as a
        context manager) to park running studies and journal the queue.
        """
        from repro.core.service import OptimizationService

        service = OptimizationService(
            state_dir,
            max_concurrent_studies=self.max_concurrent_studies,
            worker_budget=self.worker_budget,
            policy=self.policy,
            **service_kwargs,
        )
        service.start()
        return service

    # -- one study, crash-isolated ---------------------------------------------
    def _run_one(self, submission: StudySubmission) -> StudyOutcome:
        last_error = "unknown error"
        for attempt in range(self.study_max_retries + 1):
            if attempt > 0:
                delay = self.retry_backoff_s * (2 ** (attempt - 1))
                if delay > 0:
                    time.sleep(delay)
            try:
                # Retries resume from the run directory's checkpoint (when
                # one exists) instead of starting over: only the missing
                # evaluations re-run, and the resumed history is identical
                # to an uninterrupted run.
                return self._execute(submission, retry=attempt > 0)
            except Exception as exc:  # noqa: BLE001 — isolation is the contract
                last_error = f"{type(exc).__name__}: {exc}"
        return StudyOutcome(
            key=submission.key,
            status="failed",
            error=last_error,
            tenant=submission.tenant,
        )

    @staticmethod
    def _result_status(result: StudyResult) -> str:
        return "degraded" if result.is_degraded else "complete"

    def _execute(self, submission: StudySubmission, retry: bool = False) -> StudyOutcome:
        run_dir = None if submission.run_dir is None else Path(submission.run_dir)
        if (submission.resume or retry) and run_dir is not None:
            if run_status(run_dir) in ("complete", "degraded"):
                result = StudyResult.load(run_dir)
                return StudyOutcome(
                    key=submission.key,
                    status=self._result_status(result),
                    result=result,
                    tenant=submission.tenant,
                    reused=True,
                )
            if (run_dir / SCENARIO_FILE).exists():
                result = Study.resume(
                    run_dir,
                    evaluate=submission.evaluate,
                    runner=submission.runner,
                    executor=submission.executor,
                    broker=self.broker,
                )
                return StudyOutcome(
                    key=submission.key,
                    status=self._result_status(result),
                    result=result,
                    tenant=submission.tenant,
                )
        scenario = Scenario.coerce(submission.scenario)
        allotment = self.workers_per_study
        if allotment is not None and submission.executor is None:
            executor_spec = scenario.executor_spec
            if executor_spec["n_workers"] != allotment:
                executor_spec["n_workers"] = allotment
                scenario = scenario.replace(executor=executor_spec)
        study = Study(
            scenario,
            evaluate=submission.evaluate,
            runner=submission.runner,
            executor=submission.executor,
            broker=self.broker,
        )
        result = study.run(run_dir=run_dir)
        return StudyOutcome(
            key=submission.key,
            status=self._result_status(result),
            result=result,
            tenant=submission.tenant,
        )


__all__ = [
    "StudySubmission",
    "StudyOutcome",
    "StudyScheduler",
    "MapOrderedError",
    "map_ordered",
    "fifo_policy",
    "fair_share_policy",
    "preempting_policy",
    "submission_priority",
]
