"""Asynchronous batched evaluation executor.

In the paper every black-box evaluation is a full SLAM run on a physical
board, farmed out to a fleet (83 crowd devices in Fig. 5) — evaluations
dominate the wall clock, run concurrently, and finish out of order.  The
:class:`EvaluationExecutor` is the engine-side abstraction of that fleet:

* **submit/gather futures** over one persistent thread pool or socket
  broker (``n_workers=1`` on threads degenerates to an inline, serial path
  that is bit-identical to calling the wrapped evaluator directly),
* **in-flight deduplication and memoization** — with the cache enabled
  (default) a configuration is never evaluated twice, whether the duplicate
  arrives in the same batch, a later batch, or while the first evaluation is
  still running; with the cache disabled, deduplication still covers
  same-batch and in-flight duplicates (identically for every worker count),
* **unified budget accounting** with *deterministic partial-batch
  consumption*: when a batch would cross ``max_evaluations``, the longest
  affordable prefix (in submission order) is accepted and the rest is
  rejected — exactly reproducible, unlike the seed behaviour where
  :class:`~repro.core.evaluator.FunctionEvaluator` refused whole batches and
  its memoizing wrapper dropped the budget entirely.

Results are always gathered in submission order, so a deterministic
evaluation function produces a bit-identical
:class:`~repro.core.history.History` regardless of worker count.

Fault tolerance is layered in through an optional
:class:`~repro.core.faults.FaultPolicy`: evaluations are retried with seeded
backoff, classified against the failure taxonomy and quarantined with
penalty metrics when they keep failing, wherever they run; a socket worker
that dies mid-evaluation costs a bounded, silent resubmission.  Exceptions
that do escape are wrapped with the offending configuration's identity so
failures are attributable at a glance.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import asdict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.evaluator import (
    EvaluationBudgetExceeded,
    EvaluationFunction,
    Evaluator,
    FunctionEvaluator,
    MetricDict,
)
from repro.core.faults import (
    KIND_CRASH,
    EvaluationFault,
    FaultPolicy,
    WorkerCrash,
    call_with_policy,
    config_identity,
    wrap_failure,
)
from repro.core.objectives import ObjectiveSet
from repro.core.space import Configuration
from repro.core.transport import (
    DEFAULT_TRANSPORT,
    EvaluationBroker,
    WorkerDied,
    spawn_local_workers,
)

#: The executor backends: a thread pool in this process, or a socket broker
#: whose workers build the evaluator from its spec.
BACKENDS = ("thread", "socket")

#: Without a :class:`FaultPolicy`, a configuration whose socket worker dies
#: mid-evaluation is silently resubmitted up to this many times before the
#: executor gives up with a :class:`~repro.core.faults.WorkerCrash`.
DEFAULT_WORKER_DEATH_RESUBMITS = 3

#: How long an executor-owned broker waits for its ``workers: "local"``
#: threads to register (the same deadline each worker has to connect).
_LOCAL_WORKER_JOIN_S = 30.0


class EvalFuture:
    """Handle for one pending (or already resolved) configuration evaluation.

    ``fresh`` records whether this future consumed budget at submission time
    (i.e. it was neither a cache hit nor a duplicate of an in-flight
    evaluation).  ``attempts`` carries structured fault metadata when a
    policy retried or quarantined the evaluation; it is attached only to the
    fresh future of a configuration (never to cache-hit or in-flight
    duplicates), which keeps it identical across worker counts.
    """

    __slots__ = ("config", "fresh", "attempts", "_result", "_cf", "_error", "_crashes")

    def __init__(
        self,
        config: Configuration,
        fresh: bool,
        result: Optional[MetricDict] = None,
        cf: Optional[concurrent.futures.Future] = None,
        attempts: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.config = config
        self.fresh = fresh
        self.attempts = attempts
        self._result = result
        self._cf = cf
        self._error: Optional[BaseException] = None
        self._crashes = 0

    def done(self) -> bool:
        """Whether the result is available without blocking."""
        return self._cf is None or self._cf.done()

    def result(self) -> MetricDict:
        """Block until the evaluation finishes and return its metrics."""
        if self._error is not None:
            raise self._error
        if self._result is None:
            assert self._cf is not None
            metrics, attempts = self._cf.result()
            if self.fresh and attempts:
                self.attempts = (self.attempts or []) + [dict(a) for a in attempts]
            self._result = metrics
            self._cf = None
        return self._result


class EvaluationExecutor:
    """Persistent submit/gather evaluation engine with caching and budgeting.

    The worker pool (a thread pool, or the socket broker) is created lazily
    on first use and persists across batches — spinning a pool up and down
    per batch costs more than a small batch itself.  ``close()`` (or the
    context-manager protocol) releases the workers; a closed executor
    refuses further work.

    Parameters
    ----------
    evaluator:
        An :class:`~repro.core.evaluator.Evaluator` or a plain callable
        ``config -> {metric: value}`` (then ``objectives`` is required).
    objectives:
        Declared objectives; taken from ``evaluator`` when wrapping one.
    n_workers:
        Worker count.  ``1`` (default) evaluates inline at submission time —
        the fully serial, bit-reproducible reference path.
    backend:
        ``"thread"`` (default) evaluates in a thread pool of this process,
        where the GIL serializes most of a SLAM evaluation: 2 threads ran
        the benchmark's KFusion study at 1.38–1.47× the serial wall time
        (2-vCPU machine).  ``"socket"``, the backend for parallel SLAM
        evaluation, drains the batch through an
        :class:`~repro.core.transport.EvaluationBroker` served by
        ``repro eval-worker`` processes (possibly on other hosts), which
        build the black box from the evaluator's spec
        (:func:`repro.core.study.build_evaluator`).
    transport:
        Socket-backend wiring (``backend="socket"`` only): ``host``/``port``
        to bind, ``heartbeat_s``, ``workers`` (``"local"`` spawns in-process
        worker threads over loopback TCP; ``"external"`` waits for remote
        ``repro eval-worker`` connections), and an optional ``announce_file``
        the broker writes its bound address to.
    broker:
        An already-running :class:`~repro.core.transport.EvaluationBroker`
        to share (``backend="socket"`` only).  The executor then never owns
        the transport: ``close()`` leaves the broker and its workers up for
        other studies.
    max_evaluations:
        Unified evaluation budget.  ``None`` adopts the wrapped evaluator's
        own ``max_evaluations`` when it has one, so the budget is enforced
        *here* — deterministically, prefix-wise — instead of via the wrapped
        evaluator's all-or-nothing refusal.
    cache:
        Memoize results by configuration (on by default).
    fault_policy:
        Optional :class:`~repro.core.faults.FaultPolicy`.  ``None`` (default)
        preserves the historical fail-fast behaviour bit-for-bit; a policy
        turns on retries, timeout classification, quarantine, and
        worker-crash recovery.  Retries re-invoke the wrapped evaluator, so
        an inner evaluator's own ``max_evaluations`` counter (when set) is
        consumed per *attempt*.  Socket workers receive the policy with the
        spec and run the retries themselves.
    """

    def __init__(
        self,
        evaluator: Union[Evaluator, EvaluationFunction],
        objectives: Optional[ObjectiveSet] = None,
        *,
        n_workers: int = 1,
        backend: str = "thread",
        max_evaluations: Optional[int] = None,
        cache: bool = True,
        fault_policy: Optional[FaultPolicy] = None,
        transport: Optional[Mapping[str, Any]] = None,
        broker: Optional[EvaluationBroker] = None,
    ) -> None:
        if isinstance(evaluator, Evaluator):
            self._inner = evaluator
            self.objectives = evaluator.objectives
        else:
            if objectives is None:
                raise ValueError("objectives are required when wrapping a plain callable")
            self._inner = FunctionEvaluator(evaluator, objectives)
            self.objectives = objectives
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if backend != "socket" and (transport is not None or broker is not None):
            raise ValueError("transport/broker are only valid with backend='socket'")
        if backend == "socket" and getattr(self._inner, "spec", None) is None:
            raise ValueError(
                "backend='socket' ships the evaluator's spec, and a bare callable has none: "
                "use backend='thread', or repro.core.study.build_evaluator"
            )
        self.n_workers = int(n_workers)
        self.backend = backend
        self._transport = dict(DEFAULT_TRANSPORT, **dict(transport or {}))
        if max_evaluations is None:
            max_evaluations = getattr(self._inner, "max_evaluations", None)
        self.max_evaluations = max_evaluations
        self.fault_policy = fault_policy
        self._use_cache = bool(cache)
        self._cache: Dict[Configuration, MetricDict] = {}
        self._inflight: Dict[Configuration, EvalFuture] = {}
        # Budget units consumed at submission time; starts from the wrapped
        # evaluator's own counter so pre-wrap evaluations stay accounted for.
        self._planned = int(getattr(self._inner, "n_evaluations", 0))
        # The thread pool or the broker; a shared broker outlives this executor.
        self._pool: Any = broker
        self._owns_pool = broker is None
        self._local_workers: List[Any] = []
        self._closed = False

    # -- introspection -----------------------------------------------------------
    @property
    def evaluator(self) -> Evaluator:
        """The wrapped evaluator."""
        return self._inner

    @property
    def n_evaluations(self) -> int:
        """Budget units consumed so far (cache hits and duplicates excluded)."""
        return self._planned

    @property
    def budget_remaining(self) -> Optional[int]:
        """Evaluations left before the budget is exhausted (``None`` = unlimited)."""
        if self.max_evaluations is None:
            return None
        return max(self.max_evaluations - self._planned, 0)

    @property
    def cache_size(self) -> int:
        """Number of memoized configurations."""
        return len(self._cache)

    def is_cached(self, config: Configuration) -> bool:
        """Whether ``config`` has a memoized result."""
        return config in self._cache

    # -- resume support -----------------------------------------------------------
    def prime(self, config: Configuration, metrics: MetricDict) -> None:
        """Seed the cache with a known result (checkpoint restore)."""
        if self._use_cache:
            self._cache.setdefault(config, {str(k): float(v) for k, v in metrics.items()})

    def restore_consumed(self, n: int) -> None:
        """Restore the budget counter from a checkpoint (never decreases it)."""
        self._planned = max(int(n), self._planned)

    # -- submit / gather -----------------------------------------------------------
    def _evaluate_inline(
        self, config: Configuration
    ) -> Tuple[MetricDict, Optional[List[Dict[str, Any]]]]:
        """In-process evaluation: apply the fault policy, attribute failures."""
        try:
            if self.fault_policy is not None:
                return call_with_policy(self._inner, config, self.fault_policy)
            return self._inner.evaluate_one(config), None
        except (EvaluationBudgetExceeded, EvaluationFault):
            # Budget exhaustion is control flow; policy faults already carry
            # the configuration identity.
            raise
        except Exception as exc:
            raise wrap_failure(config, exc) from exc

    def submit(self, configs: Sequence[Configuration]) -> Tuple[List[EvalFuture], int]:
        """Submit a batch, returning ``(futures, n_accepted)``.

        Futures come back in submission order.  Cache hits and duplicates of
        in-flight evaluations are free; a fresh evaluation consumes one budget
        unit at submission time.  When the budget runs out mid-batch the
        longest affordable prefix is accepted (``n_accepted < len(configs)``)
        — every configuration after the first unaffordable one is rejected,
        which makes partial consumption deterministic and exact.
        """
        if self._closed:
            raise RuntimeError("this EvaluationExecutor has been closed")
        futures: List[EvalFuture] = []
        batch_inflight: Dict[Configuration, EvalFuture] = {}
        for config in configs:
            if self._use_cache and config in self._cache:
                futures.append(EvalFuture(config, fresh=False, result=self._cache[config]))
                continue
            pending = self._inflight.get(config) or batch_inflight.get(config)
            if pending is not None:
                futures.append(EvalFuture(config, fresh=False, result=pending._result, cf=pending._cf))
                continue
            if self.max_evaluations is not None and self._planned >= self.max_evaluations:
                break
            self._planned += 1
            # The socket backend always crosses the wire (a 1-worker socket
            # run is a genuinely remote run, not an inline shortcut).
            if self.n_workers == 1 and self.backend != "socket":
                metrics, attempts = self._evaluate_inline(config)
                if self._use_cache:
                    self._cache[config] = metrics
                future = EvalFuture(config, fresh=True, result=metrics, attempts=attempts)
                # Same-batch duplicates stay free even with the cache
                # disabled, matching the async path's in-flight dedup (so
                # budget consumption never depends on the worker count).
                batch_inflight[config] = future
            else:
                future = EvalFuture(config, fresh=True, cf=self._submit_async(config))
                self._inflight[config] = future
                batch_inflight[config] = future
            futures.append(future)
        return futures, len(futures)

    def _get_pool(self):
        if self._closed:
            raise RuntimeError(f"this {type(self).__name__} has been closed")
        if self._pool is None:
            if self.backend == "thread":
                self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=self.n_workers)
            else:
                self._pool = self._start_broker()
        return self._pool

    def _start_broker(self) -> EvaluationBroker:
        spec = self._transport
        broker = EvaluationBroker(
            spec["host"],
            spec["port"],
            heartbeat_s=spec["heartbeat_s"],
            announce_file=spec.get("announce_file"),
        ).start()
        if spec.get("workers", "local") == "local":
            self._local_workers = spawn_local_workers(broker.address, self.n_workers)
            # Let the local workers register first, so the first batch is
            # spread over all of them and not left to whichever one happened
            # to connect first.
            broker.wait_for_workers(self.n_workers, timeout=_LOCAL_WORKER_JOIN_S)
        return broker

    def close(self) -> None:
        """Release the worker pool (idempotent); a shared broker stays up."""
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None and self._owns_pool:
            pool.shutdown(wait=True)
            for thread in self._local_workers:
                thread.join(timeout=5.0)

    def __enter__(self) -> "EvaluationExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:
        # Last-resort guard against leaked worker pools when an exception
        # escapes submit/gather/evaluate and the owner never calls close()
        # (e.g. a crashed study).  Owners should still close deterministically
        # — Study.run does, in a finally block — this only stops a dropped
        # executor from pinning its workers for the interpreter's life.
        pool = getattr(self, "_pool", None)
        if pool is not None and self._owns_pool:
            pool.shutdown(wait=False)

    @property
    def broker(self) -> Optional[EvaluationBroker]:
        """The live broker behind ``backend="socket"`` (``None`` otherwise).

        Accessing it materializes the owned broker, so callers can announce
        its address before the first batch is submitted.
        """
        if self.backend != "socket":
            return None
        return self._get_pool()

    def _submit_async(self, config: Configuration) -> concurrent.futures.Future:
        pool = self._get_pool()
        if self.backend == "socket":
            return pool.submit(self._wire_spec(), config)
        return pool.submit(self._evaluate_inline, config)

    def _wire_spec(self) -> Dict[str, Any]:
        """The evaluator's spec, with this executor's fault policy riding along."""
        spec = dict(self._inner.spec)
        if self.fault_policy is not None:
            spec["policy"] = asdict(self.fault_policy)
        return spec

    def gather(self, futures: Sequence[EvalFuture], count: Optional[int] = None) -> List[MetricDict]:
        """Resolve the first ``count`` futures (default: all) in submission order.

        Blocking on the deterministic prefix — rather than on completion
        order — is what keeps async runs bit-identical to serial ones:
        whichever worker finishes first, results enter the history in the
        order they were proposed.  Stragglers past ``count`` keep running.
        """
        count = len(futures) if count is None else min(count, len(futures))
        results: List[MetricDict] = []
        for future in futures[:count]:
            metrics = self._resolve(future)
            if self._use_cache:
                self._cache.setdefault(future.config, metrics)
            self._inflight.pop(future.config, None)
            results.append(metrics)
        return results

    def _resolve(self, future: EvalFuture) -> MetricDict:
        """Resolve one future, resubmitting after a socket worker's death."""
        while True:
            try:
                return future.result()
            except WorkerDied as exc:
                self._recover_from_worker_death(future, exc)

    def _recover_from_worker_death(self, future: EvalFuture, exc: WorkerDied) -> None:
        """Resubmit (bounded) an evaluation lost to a dead socket worker.

        A dead socket worker is an attributable infrastructure failure that
        loses exactly one dispatched task.  Transient deaths are therefore
        recovered *silently* (no attempt metadata), which is what keeps a
        socket run's ``history.jsonl`` byte-identical to the serial run even
        when a worker is SIGKILLed mid-batch.  Only when the bound is
        exhausted does the faults taxonomy kick in: quarantine with penalty
        metrics under a policy, else a raised
        :class:`~repro.core.faults.WorkerCrash`.
        """
        config = future.config
        # A duplicate future may share the dead wire-future with the fresh
        # one; adopt whatever the fresh path already recovered instead of
        # resubmitting the same configuration twice.
        if self._use_cache and config in self._cache:
            future._result = self._cache[config]
            future._cf = None
            return
        pending = self._inflight.get(config)
        if pending is not None and pending is not future and pending._cf is not future._cf:
            future._result = pending._result
            future._cf = pending._cf
            future._error = pending._error
            return
        future._crashes += 1
        policy = self.fault_policy
        limit = policy.max_retries if policy is not None else DEFAULT_WORKER_DEATH_RESUBMITS
        if future._crashes <= limit:
            future._cf = self._submit_async(config)
        elif policy is not None and policy.quarantine:
            entry = {
                "attempt": len(future.attempts or []),
                "kind": KIND_CRASH,
                "error": f"socket worker died mid-evaluation: {exc}",
                "quarantined": True,
            }
            future.attempts = (future.attempts or []) + [entry]
            future._result = policy.penalty_metrics(self.objectives)
            future._cf = None
        else:
            future._error = WorkerCrash(
                f"configuration {config_identity(config)} lost to dead socket "
                f"workers {future._crashes} time(s): {exc}",
                config=config,
            )
            future._cf = None

    # -- synchronous convenience --------------------------------------------------
    def evaluate(self, configs: Sequence[Configuration]) -> List[MetricDict]:
        """Blocking batch evaluation (submit + gather everything).

        Raises :class:`~repro.core.evaluator.EvaluationBudgetExceeded` when
        the batch cannot be fully afforded — *before* evaluating anything or
        consuming any budget, mirroring the atomic refusal of the plain
        evaluators.  Engine code that wants graceful partial consumption
        uses :meth:`submit`/:meth:`gather` directly.
        """
        configs = list(configs)
        if self.max_evaluations is not None:
            needed = 0
            seen = set()
            for c in configs:
                if (self._use_cache and c in self._cache) or c in self._inflight or c in seen:
                    continue
                seen.add(c)
                needed += 1
            if needed > self.max_evaluations - self._planned:
                raise EvaluationBudgetExceeded(
                    f"evaluating {len(configs)} configurations would exceed the budget of "
                    f"{self.max_evaluations} (already used {self._planned})"
                )
        futures, accepted = self.submit(configs)
        assert accepted == len(configs)
        return self.gather(futures)

    def evaluate_one(self, config: Configuration) -> MetricDict:
        """Evaluate a single configuration synchronously."""
        return self.evaluate([config])[0]


def as_executor(
    evaluator: Union["EvaluationExecutor", Evaluator, EvaluationFunction],
    objectives: Optional[ObjectiveSet] = None,
    **kwargs,
) -> EvaluationExecutor:
    """Coerce an evaluator/callable into an :class:`EvaluationExecutor`."""
    if isinstance(evaluator, EvaluationExecutor):
        return evaluator
    return EvaluationExecutor(evaluator, objectives, **kwargs)


__all__ = ["BACKENDS", "EvalFuture", "EvaluationExecutor", "as_executor"]
