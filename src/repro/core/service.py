"""The live optimization service: an always-on, multi-tenant study queue.

:class:`OptimizationService` runs a bounded number of study slots fed by a
long-lived queue — the operating mode the paper's tool actually has (many
users submitting design-space studies against one shared fleet):

* **live submissions** — :meth:`submit` accepts scenarios while studies run;
  the dispatcher blocks on a condition variable when the queue is
  momentarily empty instead of exiting.
* **tenant quotas** — per-tenant caps on concurrently *running* and on
  *waiting* studies, plus per-study worker shares
  (:class:`TenantQuota`).
* **priority admission with preemption** — admission order comes from a
  pluggable schedule policy (default ``"preempting"``: highest priority
  first); when every slot is busy and a strictly higher-priority submission
  waits, the lowest-priority running study is *parked* at its next
  iteration boundary (the engine writes a resumable checkpoint and raises
  :class:`~repro.core.engine.SearchPreempted`) and resumed later
  **bit-identically** — checkpoints make preemption cheap.
* **streaming progress** — :meth:`events` tails the ``history.jsonl`` the
  study's search driver streams into an ordered event feed the HTTP front
  door (:mod:`repro.core.server`) serves as NDJSON.
* **crash-safe state** — every queue transition is appended to a durable
  ``journal.jsonl`` (:class:`~repro.core.durable.JsonlLogger`); a killed
  server restarts, replays the journal, and resumes interrupted studies
  from their run-dir checkpoints.  Whether a study's run dir is reloaded,
  resumed or started is :func:`~repro.core.study.run_in_dir`'s decision,
  the same one sweep workers make.

Studies live one-per-directory under ``<state_dir>/studies/<id>/`` in the
standard versioned run-dir layout, so every existing artifact tool
(``repro report``, ``repro doctor``, ``StudyResult.load``) works on service
runs unchanged.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro.core.durable import JsonlLogger, read_jsonl
from repro.core.engine import SearchPreempted
from repro.core.registry import SCHEDULE_POLICY_REGISTRY, registry_snapshot
from repro.core.scenario import Scenario, ScenarioError
from repro.core.scheduler import submission_priority
from repro.core.study import HISTORY_FILE, StudyResult, run_in_dir

#: Files/dirs inside a service state directory.
JOURNAL_FILE = "journal.jsonl"
STUDIES_DIR = "studies"

#: Study lifecycle states.  ``parking`` is a running study whose stop flag is
#: set (it will park at its next iteration boundary); ``parked`` studies wait
#: in the queue with a resumable checkpoint behind them.
QUEUED = "queued"
RUNNING = "running"
PARKING = "parking"
PARKED = "parked"
COMPLETE = "complete"
DEGRADED = "degraded"
FAILED = "failed"
CANCELED = "canceled"

#: States a study never leaves.
TERMINAL_STATUSES = frozenset({COMPLETE, DEGRADED, FAILED, CANCELED})
#: States in which a study occupies a worker slot.
ACTIVE_STATUSES = frozenset({RUNNING, PARKING})
#: States in which a study waits for a slot (counted against ``max_queued``).
WAITING_STATUSES = frozenset({QUEUED, PARKED})


def status_exit_code(status: str) -> Optional[int]:
    """CLI exit-code equivalent of a study status (see the CLI's table).

    ``0`` for ``complete``, ``1`` for ``degraded``/``failed``/``canceled``
    (the work did not fully succeed), ``None`` while non-terminal.  The HTTP
    layer maps validation errors — the CLI's exit ``2`` — to 422 at
    submission time, so no terminal study status carries a 2.
    """
    if status == COMPLETE:
        return 0
    if status in TERMINAL_STATUSES:
        return 1
    return None


class ServiceError(RuntimeError):
    """Base class for service-level request errors."""


class UnknownStudyError(ServiceError, KeyError):
    """A study id that was never submitted to this service (HTTP 404)."""

    def __init__(self, study_id: str) -> None:
        super().__init__(f"unknown study {study_id!r}")
        self.study_id = study_id

    def __str__(self) -> str:  # KeyError quotes its arg
        return f"unknown study {self.study_id!r}"


class ServiceConflictError(ServiceError):
    """The request conflicts with the study/queue state (HTTP 409)."""


class ServiceUnavailableError(ServiceError):
    """The service is shutting down and not accepting work (HTTP 503)."""


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits.

    Attributes
    ----------
    max_running:
        Cap on this tenant's concurrently running (slot-holding) studies;
        ``None`` = only the global slot count limits it.
    max_queued:
        Cap on this tenant's waiting studies (queued + parked); further
        submissions are rejected with :class:`ServiceConflictError` (HTTP
        409).  ``None`` = unbounded queue.
    workers:
        Per-study evaluation-worker cap for this tenant's studies; overrides
        the service-wide fair share.  Worker counts never change a study's
        history — only wall clock — so quotas cannot break bit-identity.
    """

    max_running: Optional[int] = None
    max_queued: Optional[int] = None
    workers: Optional[int] = None

    @classmethod
    def coerce(cls, value: Union["TenantQuota", Mapping[str, Any], None]) -> "TenantQuota":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(
            max_running=value.get("max_running"),
            max_queued=value.get("max_queued"),
            workers=value.get("workers"),
        )


def _safe_name(name: str) -> str:
    # Ids become directory names; sanitize wire-supplied scenario names.
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip(".-") or "study"


@dataclass
class StudyEntry:
    """One submission's full service-side state (internal)."""

    id: str
    seq: int
    scenario: Scenario
    tenant: str
    priority: int
    run_dir: Path
    status: str = QUEUED
    error: Optional[str] = None
    #: Times this study was parked by preemption or shutdown.
    preemptions: int = 0
    cancel_requested: bool = False
    stop_event: threading.Event = field(default_factory=threading.Event)
    thread: Optional[threading.Thread] = None
    # Host bindings (in-process submissions only; not journal-recoverable).
    evaluate: Optional[Callable] = None
    runner: Any = None

    def snapshot(self) -> Dict[str, Any]:
        """Public status view (what ``GET /v1/studies/{id}`` returns)."""
        return {
            "id": self.id,
            "name": self.scenario.name,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "error": self.error,
            "preemptions": self.preemptions,
            "run_dir": str(self.run_dir),
            "exit_code": status_exit_code(self.status),
        }


class OptimizationService:
    """The always-on queue (see the module docstring).

    Parameters
    ----------
    state_dir:
        Durable service state: ``journal.jsonl`` plus one run dir per study
        under ``studies/``.  Reusing a previous state dir replays its
        journal and resumes unfinished studies.
    max_concurrent_studies / worker_budget:
        Slot count and total evaluation-worker budget.  A fresh study's
        executor gets ``max(1, worker_budget // max_concurrent_studies)``
        workers (the fair share) unless its tenant's quota says otherwise;
        ``None`` leaves each scenario's own ``executor.n_workers``.
    policy:
        Admission policy name (:data:`SCHEDULE_POLICY_REGISTRY`) or callable;
        default ``"preempting"`` (highest priority first).
    quotas:
        ``{tenant: TenantQuota | dict}``; tenants without an entry get
        ``default_quota`` (unbounded by default).
    preemption:
        When true (default), a waiting submission with strictly higher
        priority parks the lowest-priority running study at its next
        iteration boundary.
    evaluate / runner:
        Service-wide host bindings forwarded to every
        :class:`~repro.core.study.Study` (e.g. one shared simulation-cache
        runner, or the black box for ``{"type": "function"}`` scenarios
        submitted in-process).
    journal_fsync:
        Set false to skip per-event fsync (tests; production keeps it on).
    broker:
        A running :class:`~repro.core.transport.EvaluationBroker` shared by
        every socket-backend study this service runs — the multi-host path:
        one service, one broker, ``repro eval-worker`` fleets on any number
        of machines.  The broker's lifecycle stays with the caller.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        max_concurrent_studies: int = 1,
        worker_budget: Optional[int] = None,
        policy: Union[str, Callable] = "preempting",
        quotas: Optional[Mapping[str, Union[TenantQuota, Mapping[str, Any]]]] = None,
        default_quota: Union[TenantQuota, Mapping[str, Any], None] = None,
        preemption: bool = True,
        evaluate: Optional[Callable] = None,
        runner: Any = None,
        journal_fsync: bool = True,
        broker: Optional[Any] = None,
    ) -> None:
        if int(max_concurrent_studies) < 1:
            raise ValueError("max_concurrent_studies must be >= 1")
        if worker_budget is not None and int(worker_budget) < 1:
            raise ValueError("worker_budget must be >= 1 (or None)")
        self.state_dir = Path(state_dir)
        self.max_concurrent_studies = int(max_concurrent_studies)
        self.worker_budget = None if worker_budget is None else int(worker_budget)
        self.policy = SCHEDULE_POLICY_REGISTRY.get(policy) if isinstance(policy, str) else policy
        self.quotas: Dict[str, TenantQuota] = {
            str(k): TenantQuota.coerce(v) for k, v in (quotas or {}).items()
        }
        self.default_quota = TenantQuota.coerce(default_quota)
        self.preemption = bool(preemption)
        self._evaluate = evaluate
        self._runner = runner
        self._journal_fsync = bool(journal_fsync)
        self._broker = broker

        self._cond = threading.Condition()
        self._entries: Dict[str, StudyEntry] = {}
        self._order: List[str] = []
        self._seq = 0
        self._started_per_tenant: Dict[str, int] = {}
        self._journal: Optional[JsonlLogger] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._started = False
        self._stopping = False
        self._accepting = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "OptimizationService":
        """Replay the journal, requeue unfinished studies, start dispatching.

        Idempotent.  Studies the previous process left ``running`` (killed
        mid-run) come back ``parked``: their run dirs hold resumable
        checkpoints, so the dispatcher resumes them bit-identically.
        """
        with self._cond:
            if self._started:
                return self
            self.state_dir.mkdir(parents=True, exist_ok=True)
            (self.state_dir / STUDIES_DIR).mkdir(exist_ok=True)
            self._replay_journal_locked()
            self._journal = JsonlLogger(
                self.state_dir / JOURNAL_FILE, fsync=self._journal_fsync
            )
            self._started = True
            self._stopping = False
            self._accepting = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-service-dispatcher", daemon=True
            )
            self._dispatcher.start()
        return self

    def _replay_journal_locked(self) -> None:
        path = self.state_dir / JOURNAL_FILE
        if not path.exists():
            return
        # A torn final line is exactly what a SIGKILL mid-append leaves;
        # everything before it is complete events.
        for event in read_jsonl(path, tolerate_torn_tail=True):
            kind = event.get("event")
            if kind == "submit":
                entry = StudyEntry(
                    id=str(event["id"]),
                    seq=int(event["seq"]),
                    scenario=Scenario.from_dict(event["scenario"]),
                    tenant=str(event.get("tenant", "default")),
                    priority=int(event.get("priority", 0)),
                    run_dir=self.state_dir / STUDIES_DIR / str(event["id"]),
                )
                self._entries[entry.id] = entry
                self._order.append(entry.id)
                self._seq = max(self._seq, entry.seq + 1)
                continue
            entry = self._entries.get(str(event.get("id", "")))
            if kind == "start" and entry is not None:
                entry.status = RUNNING
                self._started_per_tenant[entry.tenant] = (
                    self._started_per_tenant.get(entry.tenant, 0) + 1
                )
            elif kind == "parked" and entry is not None:
                entry.status = PARKED
                entry.preemptions += 1
            elif kind == "canceled" and entry is not None:
                entry.status = CANCELED
            elif kind == "finished" and entry is not None:
                entry.status = str(event.get("status", FAILED))
                entry.error = event.get("error")
            # "parking" and "shutdown" are transient markers: fold-through.
        for entry in self._entries.values():
            if entry.status in ACTIVE_STATUSES:
                # The previous server died with this study running; its run
                # dir ends at an evaluation boundary (modulo a torn tail the
                # resume path drops) with a checkpoint behind it.
                entry.status = PARKED
                entry.preemptions += 1  # an involuntary park, still counted

    def shutdown(self, park_running: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting work and wind the service down cleanly.

        With ``park_running`` (the default — the SIGTERM path) every running
        study is parked at its next iteration boundary behind a resumable
        checkpoint; otherwise running studies finish naturally.  Queued and
        parked studies stay journaled for the next ``start()``.
        """
        with self._cond:
            if not self._started:
                return
            self._accepting = False
            self._stopping = True
            if park_running:
                for entry in self._entries.values():
                    if entry.status in ACTIVE_STATUSES:
                        entry.stop_event.set()
            self._cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        for entry in list(self._entries.values()):
            thread = entry.thread
            if thread is not None and thread.is_alive():
                thread.join(timeout=timeout)
        if self._journal is not None:
            self._journal.append({"event": "shutdown", "t": time.time()})
            self._journal.close()
        with self._cond:
            self._started = False

    def __enter__(self) -> "OptimizationService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- submission API --------------------------------------------------------
    def submit(
        self,
        scenario: Union[Scenario, Mapping[str, Any], str, Path],
        *,
        tenant: str = "default",
        priority: int = 0,
        evaluate: Optional[Callable] = None,
        runner: Any = None,
    ) -> str:
        """Validate and enqueue a scenario; returns the study id.

        Raises :class:`~repro.core.scenario.ScenarioError` (pointer-path
        validation errors — the HTTP layer's 422), :class:`ServiceConflictError`
        when the tenant's ``max_queued`` quota is exhausted (409), and
        :class:`ServiceUnavailableError` during shutdown (503).
        """
        scenario = Scenario.coerce(scenario)  # raises ScenarioError up front
        tenant = str(tenant)
        with self._cond:
            if not self._started or not self._accepting:
                raise ServiceUnavailableError("service is not accepting submissions")
            quota = self.quota_for(tenant)
            if quota.max_queued is not None:
                waiting = sum(
                    1
                    for e in self._entries.values()
                    if e.tenant == tenant and e.status in WAITING_STATUSES
                )
                if waiting >= quota.max_queued:
                    raise ServiceConflictError(
                        f"tenant {tenant!r} queue is full "
                        f"({waiting}/{quota.max_queued} waiting studies)"
                    )
            seq = self._seq
            self._seq += 1
            study_id = f"{seq:06d}-{_safe_name(scenario.name)}"
            entry = StudyEntry(
                id=study_id,
                seq=seq,
                scenario=scenario,
                tenant=tenant,
                priority=int(priority),
                run_dir=self.state_dir / STUDIES_DIR / study_id,
                evaluate=evaluate,
                runner=runner,
            )
            self._entries[study_id] = entry
            self._order.append(study_id)
            assert self._journal is not None
            self._journal.append(
                {
                    "event": "submit",
                    "id": study_id,
                    "seq": seq,
                    "tenant": tenant,
                    "priority": int(priority),
                    "scenario": scenario.to_dict(),
                    "t": time.time(),
                }
            )
            self._cond.notify_all()
        return study_id

    def cancel(self, study_id: str) -> Dict[str, Any]:
        """Cancel a study: immediately when waiting, at the next iteration
        boundary when running.  Terminal studies raise
        :class:`ServiceConflictError` (HTTP 409)."""
        with self._cond:
            entry = self._get_locked(study_id)
            if entry.status in TERMINAL_STATUSES:
                raise ServiceConflictError(
                    f"study {study_id} is already {entry.status}"
                )
            entry.cancel_requested = True
            if entry.status in WAITING_STATUSES:
                entry.status = CANCELED
                assert self._journal is not None
                self._journal.append(
                    {"event": "canceled", "id": study_id, "t": time.time()}
                )
            else:  # running/parking: park at the boundary, then cancel
                entry.stop_event.set()
            self._cond.notify_all()
            return entry.snapshot()

    # -- inspection API --------------------------------------------------------
    def status(self, study_id: str) -> Dict[str, Any]:
        """Public status snapshot of one study."""
        with self._cond:
            return self._get_locked(study_id).snapshot()

    def list_studies(self) -> List[Dict[str, Any]]:
        """Snapshots of every known study, in submission order."""
        with self._cond:
            return [self._entries[sid].snapshot() for sid in self._order]

    def report(self, study_id: str) -> Dict[str, Any]:
        """The persisted report of a finished study (409 otherwise)."""
        with self._cond:
            entry = self._get_locked(study_id)
            status = entry.status
        if status not in (COMPLETE, DEGRADED):
            raise ServiceConflictError(
                f"study {study_id} has no report (status {status!r})"
            )
        return StudyResult.load(entry.run_dir).report()

    def plugins(self) -> Dict[str, List[str]]:
        """Registry snapshot — the exact serializer ``list-plugins --json``
        prints, schedule policies included."""
        return registry_snapshot()

    def health(self) -> Dict[str, Any]:
        """Liveness/queue summary for ``/healthz``."""
        with self._cond:
            counts: Dict[str, int] = {}
            for entry in self._entries.values():
                counts[entry.status] = counts.get(entry.status, 0) + 1
            return {
                "status": "ok" if self._started and self._accepting else "draining",
                "studies": counts,
                "max_concurrent_studies": self.max_concurrent_studies,
                "worker_budget": self.worker_budget,
            }

    def wait(self, study_id: str, timeout: Optional[float] = None) -> str:
        """Block until a study reaches a terminal status; returns it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            entry = self._get_locked(study_id)
            while entry.status not in TERMINAL_STATUSES:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"study {study_id} still {entry.status} after {timeout}s"
                    )
                self._cond.wait(timeout=remaining if remaining is not None else 1.0)
            return entry.status

    def events(
        self,
        study_id: str,
        *,
        poll_s: float = 0.05,
        timeout: Optional[float] = None,
        follow: bool = True,
    ) -> Iterator[Dict[str, Any]]:
        """Ordered progress events derived from the streamed ``history.jsonl``.

        Yields ``{"event": "record", "index": i, "data": {...}}`` for every
        history record exactly once (across parks and resumes — indices are
        logical history positions), ``{"event": "status", ...}`` on lifecycle
        transitions, and a final ``{"event": "end", "status": ...,
        "exit_code": ...}`` when the study is terminal.  With
        ``follow=False`` the stream stops after the current backlog.
        """
        with self._cond:
            entry = self._get_locked(study_id)
            last_status = entry.status
        yield {"event": "status", "id": study_id, "status": last_status}
        n_emitted = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Snapshot the status *before* reading the stream: if it is
            # already terminal the artifacts are final, so the read below
            # cannot miss records emitted after our check.
            with self._cond:
                status = entry.status
            for event in self._new_records(entry, n_emitted):
                n_emitted += 1
                yield event
            if status != last_status:
                last_status = status
                yield {"event": "status", "id": study_id, "status": status}
            if status in TERMINAL_STATUSES:
                yield {
                    "event": "end",
                    "id": study_id,
                    "status": status,
                    "exit_code": status_exit_code(status),
                    "error": entry.error,
                    "n_records": n_emitted,
                }
                return
            if not follow:
                return
            if deadline is not None and time.monotonic() > deadline:
                return
            with self._cond:
                if entry.status == status:
                    self._cond.wait(timeout=poll_s)

    def _new_records(self, entry: StudyEntry, n_emitted: int) -> List[Dict[str, Any]]:
        # Reading the whole file and slicing keeps indices stable across parks
        # and resumes: a resume cuts the file back to its checkpoint's prefix
        # and re-runs the records after it bit-identically.
        path = entry.run_dir / HISTORY_FILE
        if not path.exists():
            return []
        try:
            records = read_jsonl(path, tolerate_torn_tail=True)
        except (OSError, ValueError):
            return []
        return [
            {"event": "record", "index": n_emitted + i, "data": rec}
            for i, rec in enumerate(records[n_emitted:])
        ]

    # -- internals -------------------------------------------------------------
    def _get_locked(self, study_id: str) -> StudyEntry:
        entry = self._entries.get(str(study_id))
        if entry is None:
            raise UnknownStudyError(str(study_id))
        return entry

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota governing ``tenant`` (its own, or the default)."""
        return self.quotas.get(str(tenant), self.default_quota)

    def _allotment(self, tenant: str) -> Optional[int]:
        """Evaluation workers per study of ``tenant``: its quota's, else the
        fair share of the worker budget (``None`` = the scenario's own)."""
        quota = self.quota_for(tenant)
        if quota.workers is not None:
            return int(quota.workers)
        if self.worker_budget is None:
            return None
        return max(1, self.worker_budget // self.max_concurrent_studies)

    def _dispatch_loop(self) -> None:
        with self._cond:
            while True:
                self._admit_locked()
                active = any(
                    e.status in ACTIVE_STATUSES for e in self._entries.values()
                )
                if self._stopping and not active:
                    return
                self._cond.wait(timeout=0.2)

    def _tenant_running_locked(self, tenant: str) -> int:
        return sum(
            1
            for e in self._entries.values()
            if e.tenant == tenant and e.status in ACTIVE_STATUSES
        )

    def _candidates_locked(self) -> List[StudyEntry]:
        out = []
        for sid in self._order:
            entry = self._entries[sid]
            if entry.status not in WAITING_STATUSES:
                continue
            quota = self.quota_for(entry.tenant)
            if (
                quota.max_running is not None
                and self._tenant_running_locked(entry.tenant) >= quota.max_running
            ):
                continue
            out.append(entry)
        return out

    def _admit_locked(self) -> None:
        if self._stopping:
            return
        while True:
            n_active = sum(
                1 for e in self._entries.values() if e.status in ACTIVE_STATUSES
            )
            if n_active >= self.max_concurrent_studies:
                break
            candidates = self._candidates_locked()
            if not candidates:
                break
            pick = self.policy(candidates, dict(self._started_per_tenant))
            if not isinstance(pick, int) or not 0 <= pick < len(candidates):
                raise ValueError(
                    f"schedule policy returned invalid index {pick!r} "
                    f"for a queue of {len(candidates)}"
                )
            self._start_locked(candidates[pick])
        if self.preemption:
            self._preempt_locked()

    def _start_locked(self, entry: StudyEntry) -> None:
        entry.status = RUNNING
        entry.stop_event = threading.Event()
        if entry.cancel_requested:  # cancel raced the admission
            entry.stop_event.set()
        self._started_per_tenant[entry.tenant] = (
            self._started_per_tenant.get(entry.tenant, 0) + 1
        )
        assert self._journal is not None
        self._journal.append({"event": "start", "id": entry.id, "t": time.time()})
        entry.thread = threading.Thread(
            target=self._run_entry, args=(entry,), name=f"repro-study-{entry.id}",
            daemon=True,
        )
        entry.thread.start()

    def _preempt_locked(self) -> None:
        """Park the lowest-priority running study for a strictly
        higher-priority waiting one (at most one victim per pass — the
        dispatcher re-evaluates as soon as the slot frees)."""
        candidates = self._candidates_locked()
        if not candidates:
            return
        n_active = sum(1 for e in self._entries.values() if e.status in ACTIVE_STATUSES)
        if n_active < self.max_concurrent_studies:
            return  # a slot is free; plain admission handles it
        best_waiting = max(submission_priority(e) for e in candidates)
        victims = [
            e
            for e in self._entries.values()
            if e.status == RUNNING and submission_priority(e) < best_waiting
        ]
        if not victims:
            return
        # Lowest priority first; among equals the most recently admitted
        # (highest seq) is parked — it has the least sunk work.
        victim = min(victims, key=lambda e: (submission_priority(e), -e.seq))
        victim.status = PARKING
        victim.stop_event.set()
        assert self._journal is not None
        self._journal.append(
            {"event": "parking", "id": victim.id, "reason": "preempted", "t": time.time()}
        )

    def _run_entry(self, entry: StudyEntry) -> None:
        evaluate = entry.evaluate if entry.evaluate is not None else self._evaluate
        runner = entry.runner if entry.runner is not None else self._runner
        status: str
        error: Optional[str] = None
        try:
            # A parked or journal-recovered study resumes its run dir; one
            # that finished while the journal missed the event (killed
            # between finalize and append) is reloaded, not re-run.
            result, _ = run_in_dir(
                entry.scenario,
                entry.run_dir,
                evaluate=evaluate,
                runner=runner,
                broker=self._broker,
                n_workers=self._allotment(entry.tenant),
                stop_requested=entry.stop_event.is_set,
            )
            status = DEGRADED if result.is_degraded else COMPLETE
        except SearchPreempted:
            status = CANCELED if entry.cancel_requested else PARKED
        except ScenarioError as exc:
            status, error = FAILED, f"invalid scenario: {exc}"
        except Exception as exc:  # noqa: BLE001 — crash isolation is the contract
            status, error = FAILED, f"{type(exc).__name__}: {exc}"
        with self._cond:
            entry.status = status
            entry.error = error
            entry.thread = None
            assert self._journal is not None
            if status == PARKED:
                entry.preemptions += 1
                self._journal.append({"event": "parked", "id": entry.id, "t": time.time()})
            elif status == CANCELED:
                self._journal.append({"event": "canceled", "id": entry.id, "t": time.time()})
            else:
                self._journal.append(
                    {
                        "event": "finished",
                        "id": entry.id,
                        "status": status,
                        "error": error,
                        "t": time.time(),
                    }
                )
            self._cond.notify_all()


__all__ = [
    "JOURNAL_FILE",
    "STUDIES_DIR",
    "TERMINAL_STATUSES",
    "ACTIVE_STATUSES",
    "WAITING_STATUSES",
    "status_exit_code",
    "ServiceError",
    "UnknownStudyError",
    "ServiceConflictError",
    "ServiceUnavailableError",
    "TenantQuota",
    "StudyEntry",
    "OptimizationService",
]
