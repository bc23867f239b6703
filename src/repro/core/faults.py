"""Fault tolerance for black-box evaluations: retries, timeouts, quarantine.

The paper's real operating mode is a crowdsourced fleet of 83 consumer
devices — evaluations hang, crash, or return garbage as a matter of course.
This module makes those failures *first-class data* instead of study-killing
exceptions:

* a typed failure taxonomy (:class:`EvaluationTimeout`, :class:`WorkerCrash`,
  :class:`EvaluatorError`, :class:`InvalidResult`) with stable ``kind``
  strings that end up in ``history.jsonl``,
* a :class:`FaultPolicy` — bounded retries with seeded exponential backoff +
  jitter, a per-evaluation timeout, and poison-config *quarantine*: a
  configuration that keeps failing is recorded with penalty metrics (worst
  possible objective values) so the search degrades gracefully instead of
  dying,
* a deterministic chaos harness, :class:`FaultInjectingEvaluator`, that
  injects drop/delay/corrupt/crash faults from a *seeded fault trace*: every
  injection decision is a pure function of ``(seed, configuration, attempt)``,
  never of wall clock or thread identity.

Determinism is the design constraint everything above bends around.  The
repo's core invariant — same seed → bit-identical ``history.jsonl`` across
serial, concurrent and resumed execution — must survive faults, so:

* injected delays are *virtual*: the injector sleeps a tiny capped real
  amount but reports the full configured delay through a thread-local,
  and the retry loop classifies timeouts on that virtual duration.  Real
  (non-injected) evaluations fall back to wall-clock timing, which is
  inherently best-effort and documented as such.
* backoff sleeps are derived from the policy seed, so the *timing* of a
  retry varies but its *outcome* (and thus the history) never does,
* retry decisions depend only on the failure kind, never on which worker
  observed it.

``attempt`` metadata is attached to the history record of the evaluation it
belongs to and round-trips through checkpoints, so a killed-and-resumed run
replays the identical fault trace.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.evaluator import EvaluationBudgetExceeded, Evaluator, MetricDict
from repro.core.space import Configuration
from repro.utils.rng import check_probability, derive_seed

#: Stable taxonomy labels recorded in ``history.jsonl`` attempt metadata.
KIND_TIMEOUT = "timeout"
KIND_CRASH = "crash"
KIND_EVALUATOR_ERROR = "evaluator_error"
KIND_INVALID = "invalid"
FAULT_KINDS = (KIND_TIMEOUT, KIND_CRASH, KIND_EVALUATOR_ERROR, KIND_INVALID)

#: Injected delays sleep at most this long for real — the remainder is
#: virtual, so chaos runs stay fast *and* deterministic.
REAL_SLEEP_CAP_S = 0.005


class EvaluationFault(RuntimeError):
    """Base class of the failure taxonomy; ``kind`` is the stable label."""

    kind = KIND_EVALUATOR_ERROR

    def __init__(self, message: str, config: Optional[Configuration] = None) -> None:
        super().__init__(message)
        self.config = config


class EvaluationTimeout(EvaluationFault):
    """The evaluation exceeded the policy's per-evaluation timeout."""

    kind = KIND_TIMEOUT


class WorkerCrash(EvaluationFault):
    """The worker executing the evaluation died (or was injected to)."""

    kind = KIND_CRASH


class EvaluatorError(EvaluationFault):
    """The evaluation function raised an ordinary exception."""

    kind = KIND_EVALUATOR_ERROR


class InvalidResult(EvaluationFault):
    """The evaluation returned unusable metrics (missing/non-finite objectives)."""

    kind = KIND_INVALID


_FAULT_TYPES: Dict[str, type] = {
    KIND_TIMEOUT: EvaluationTimeout,
    KIND_CRASH: WorkerCrash,
    KIND_EVALUATOR_ERROR: EvaluatorError,
    KIND_INVALID: InvalidResult,
}


def config_identity(config: Configuration) -> str:
    """A stable, human-readable identity string for ``config``.

    Used both as the RNG label for per-configuration fault decisions and to
    attribute failures in exception messages ("which configuration broke?")
    without digging through worker tracebacks.
    """
    try:
        values = config.to_dict()
    except AttributeError:  # plain mappings in tests
        values = dict(config)
    return json.dumps(values, sort_keys=True, default=str)


def wrap_failure(config: Configuration, exc: BaseException) -> EvaluationFault:
    """Wrap an arbitrary failure with the offending configuration's identity."""
    return fault_from_error(
        config, {"kind": None, "type": type(exc).__name__, "message": str(exc)}
    )


def fault_from_error(config: Configuration, error: Mapping[str, Any]) -> EvaluationFault:
    """Revive a failure reported as ``{kind, type, message}``: a fault kind as
    its type, anything else worded as :func:`wrap_failure` words it."""
    fault_type = _FAULT_TYPES.get(error.get("kind"))
    if fault_type is not None:
        return fault_type(error["message"], config=config)
    return EvaluatorError(
        f"configuration {config_identity(config)} failed: {error['type']}: {error['message']}",
        config=config,
    )


# ---------------------------------------------------------------------------
# Per-call context (attempt index, virtual delay)
# ---------------------------------------------------------------------------

#: The retry loop and the evaluation function always run in the same thread
#: (inline path, pool thread or socket worker), so a thread-local is enough to
#: hand the attempt index down and the injected virtual delay back up —
#: without changing the ``config -> metrics`` calling convention.
_CTX = threading.local()


def current_attempt() -> int:
    """The retry attempt index of the evaluation running in this thread (0-based)."""
    return int(getattr(_CTX, "attempt", 0))


def _reset_ctx(attempt: int) -> None:
    _CTX.attempt = int(attempt)
    _CTX.injected_delay_s = None


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPolicy:
    """How the executor responds to failing evaluations.

    Attributes
    ----------
    max_retries:
        Additional attempts after the first failure (``0`` = no retries).
    timeout_s:
        Per-evaluation timeout.  Injected (virtual) delays are classified
        deterministically; real wall-clock timing is best-effort and, with a
        thread backend, post-hoc — a slow evaluation is *classified* as a
        timeout after it returns rather than preempted.
    quarantine:
        When retries are exhausted, record the configuration with
        :meth:`penalty_metrics` (worst-case objective values, infeasible by
        construction) instead of raising — the search continues, the run
        finishes "degraded".
    penalty:
        Magnitude of the penalty objective values.
    backoff_base_s / backoff_factor / backoff_jitter / backoff_max_s:
        Exponential backoff between attempts:
        ``base * factor**attempt + U(0, jitter)``, capped at ``backoff_max_s``.
        The jitter draw is seeded per ``(configuration, attempt)`` so retry
        *timing* is reproducible too.
    seed:
        Seed of the backoff-jitter stream (no effect on history content).
    """

    max_retries: int = 0
    timeout_s: Optional[float] = None
    quarantine: bool = True
    penalty: float = 1e9
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.0
    backoff_max_s: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0 (or None), got {self.timeout_s}")
        if not self.penalty > 0:
            raise ValueError(f"penalty must be > 0, got {self.penalty}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_jitter < 0:
            raise ValueError(f"backoff_jitter must be >= 0, got {self.backoff_jitter}")
        if self.backoff_max_s is not None and self.backoff_max_s < 0:
            raise ValueError(f"backoff_max_s must be >= 0 (or None), got {self.backoff_max_s}")

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], seed: Optional[int] = None) -> "FaultPolicy":
        """Build a policy from a validated scenario ``faults`` section."""
        return cls(
            max_retries=int(spec.get("max_retries", 0)),
            timeout_s=spec.get("timeout_s"),
            quarantine=bool(spec.get("quarantine", True)),
            penalty=float(spec.get("penalty", 1e9)),
            backoff_base_s=float(spec.get("backoff_base_s", 0.0)),
            backoff_factor=float(spec.get("backoff_factor", 2.0)),
            backoff_jitter=float(spec.get("backoff_jitter", 0.0)),
            backoff_max_s=spec.get("backoff_max_s"),
            seed=seed,
        )

    def with_seed(self, seed: Optional[int]) -> "FaultPolicy":
        """A copy of this policy with a different jitter seed."""
        return replace(self, seed=seed)

    def penalty_metrics(self, objectives: Iterable[Any]) -> MetricDict:
        """Worst-case metrics for a quarantined configuration.

        Each objective gets ``penalty`` in its *worst* direction (``+penalty``
        when minimizing, ``-penalty`` when maximizing), so a quarantined
        record is dominated by every genuine evaluation and infeasible under
        any finite objective limit.
        """
        return {
            o.name: float(self.penalty) if getattr(o, "minimize", True) else -float(self.penalty)
            for o in objectives
        }

    def backoff_delay_s(self, config: Configuration, attempt: int) -> float:
        """Deterministic backoff before retrying ``config`` after ``attempt``."""
        delay = self.backoff_base_s * (self.backoff_factor ** attempt)
        if self.backoff_jitter > 0:
            u = derive_seed(
                self.seed, config_identity(config), f"attempt-{attempt}", "backoff"
            ) / float(2**31 - 1)
            delay += u * self.backoff_jitter
        if self.backoff_max_s is not None:
            delay = min(delay, self.backoff_max_s)
        return max(delay, 0.0)

    def sleep_before_retry(self, config: Configuration, attempt: int) -> None:
        """Sleep the backoff delay (no-op when the delay is zero)."""
        delay = self.backoff_delay_s(config, attempt)
        if delay > 0:
            time.sleep(delay)


# ---------------------------------------------------------------------------
# Chaos injection
# ---------------------------------------------------------------------------


class FaultInjectingEvaluator:
    """Deterministic chaos harness wrapping a ``config -> metrics`` callable.

    Every injection decision is a pure function of
    ``(seed, configuration, attempt, fault kind)`` through
    :func:`~repro.utils.rng.derive_seed` — a *seeded fault trace*.  The same
    seed therefore injects the identical fault sequence regardless of worker
    count, backend, or resume point, which is what keeps chaos runs
    bit-identical.

    Fault kinds (checked in this order, first hit wins):

    * ``drop``   — the worker "dies": raises :class:`WorkerCrash`.
    * ``crash``  — the evaluation function raises an ordinary exception.
    * ``delay``  — the evaluation "hangs": a virtual delay of ``delay_s`` is
      reported (real sleep capped at :data:`REAL_SLEEP_CAP_S`), tripping the
      policy timeout when ``delay_s > timeout_s``.
    * ``corrupt`` — the evaluation returns garbage: every metric becomes NaN.

    Socket workers rebuild the harness from the ``inject`` section of the
    evaluator spec, so it runs where the evaluation runs.
    """

    def __init__(
        self,
        fn: Callable[[Configuration], MetricDict],
        *,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_s: float = 0.0,
        corrupt_rate: float = 0.0,
        crash_rate: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        self.fn = fn
        self.drop_rate = check_probability(drop_rate, "drop_rate")
        self.delay_rate = check_probability(delay_rate, "delay_rate")
        self.corrupt_rate = check_probability(corrupt_rate, "corrupt_rate")
        self.crash_rate = check_probability(crash_rate, "crash_rate")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.delay_s = float(delay_s)
        self.seed = seed

    def _roll(self, key: str, attempt: int, kind: str) -> float:
        """A uniform draw in [0, 1) that is a pure function of its labels.

        The attempt index is passed as a *string* label: string labels go
        through FNV-1a hashing inside :func:`~repro.utils.rng.derive_seed`,
        so consecutive attempts decorrelate (integer labels only shift the
        LCG state linearly, which would make retry outcomes near-copies of
        the first attempt).
        """
        return derive_seed(self.seed, key, f"attempt-{attempt}", kind) / float(2**31 - 1)

    def __call__(self, config: Configuration) -> MetricDict:
        key = config_identity(config)
        attempt = current_attempt()
        if self.drop_rate > 0 and self._roll(key, attempt, "drop") < self.drop_rate:
            raise WorkerCrash(
                f"injected worker drop for {key} (attempt {attempt})", config=config
            )
        if self.crash_rate > 0 and self._roll(key, attempt, "crash") < self.crash_rate:
            raise RuntimeError(f"injected evaluator crash for {key} (attempt {attempt})")
        if (
            self.delay_s > 0
            and self.delay_rate > 0
            and self._roll(key, attempt, "delay") < self.delay_rate
        ):
            time.sleep(min(self.delay_s, REAL_SLEEP_CAP_S))
            _CTX.injected_delay_s = self.delay_s
        metrics = dict(self.fn(config))
        if self.corrupt_rate > 0 and self._roll(key, attempt, "corrupt") < self.corrupt_rate:
            metrics = {k: float("nan") for k in metrics}
        return metrics


# ---------------------------------------------------------------------------
# The retry loop
# ---------------------------------------------------------------------------


def _objectives_finite(metrics: Mapping[str, Any], objectives: Iterable[Any]) -> bool:
    import math

    for o in objectives:
        try:
            value = float(metrics[o.name])
        except (KeyError, TypeError, ValueError):
            return False
        if not math.isfinite(value):
            return False
    return True


def call_with_policy(
    evaluator: Evaluator, config: Configuration, policy: FaultPolicy
) -> Tuple[MetricDict, Optional[List[Dict[str, Any]]]]:
    """Evaluate ``config`` under ``policy``: retry, classify, quarantine.

    Returns ``(metrics, attempts)`` where ``attempts`` is ``None`` for a
    clean first-try success or a list of structured failure entries
    (``{"attempt", "kind", "error"}``; the final entry carries
    ``"quarantined": true`` when the configuration was quarantined).

    Budget exhaustion (:class:`~repro.core.evaluator.EvaluationBudgetExceeded`)
    is never retried or swallowed — it is control flow, not a fault.
    """
    attempts: List[Dict[str, Any]] = []
    last: Tuple[str, str] = (KIND_EVALUATOR_ERROR, "unknown failure")
    for attempt in range(int(policy.max_retries) + 1):
        _reset_ctx(attempt)
        start = time.monotonic()
        fault_kind: Optional[str] = None
        fault_msg = ""
        metrics: Optional[MetricDict] = None
        try:
            metrics = evaluator.evaluate([config])[0]
        except EvaluationBudgetExceeded:
            _reset_ctx(0)
            raise
        except EvaluationFault as exc:
            fault_kind, fault_msg = exc.kind, str(exc)
        except KeyError as exc:
            fault_kind, fault_msg = KIND_INVALID, f"missing objective value {exc}"
        except Exception as exc:  # noqa: BLE001 — classification is the point
            fault_kind, fault_msg = KIND_EVALUATOR_ERROR, f"{type(exc).__name__}: {exc}"
        if fault_kind is None:
            injected = getattr(_CTX, "injected_delay_s", None)
            elapsed = injected if injected is not None else time.monotonic() - start
            if policy.timeout_s is not None and elapsed > policy.timeout_s:
                fault_kind = KIND_TIMEOUT
                fault_msg = (
                    f"evaluation took {elapsed:.6g}s (timeout_s={policy.timeout_s:g})"
                )
            elif not _objectives_finite(metrics, evaluator.objectives):
                fault_kind, fault_msg = KIND_INVALID, "non-finite objective values"
        if fault_kind is None:
            _reset_ctx(0)
            return metrics, (attempts or None)
        attempts.append({"attempt": attempt, "kind": fault_kind, "error": fault_msg})
        last = (fault_kind, fault_msg)
        if attempt < policy.max_retries:
            policy.sleep_before_retry(config, attempt)
    _reset_ctx(0)
    if policy.quarantine:
        attempts[-1] = dict(attempts[-1], quarantined=True)
        return policy.penalty_metrics(evaluator.objectives), attempts
    kind, msg = last
    raise _FAULT_TYPES[kind](
        f"configuration {config_identity(config)} failed after "
        f"{len(attempts)} attempt(s): {msg}",
        config=config,
    )


# ---------------------------------------------------------------------------
# Attempt-metadata helpers
# ---------------------------------------------------------------------------


def attempts_quarantined(attempts: Optional[List[Dict[str, Any]]]) -> bool:
    """Whether attempt metadata marks the record as quarantined."""
    return bool(attempts) and any(a.get("quarantined") for a in attempts)


def summarize_faults(records: Iterable[Any]) -> Dict[str, Any]:
    """Aggregate attempt metadata across history records for reports.

    Returns ``n_affected`` (records with at least one failed attempt),
    ``n_retried_ok`` (affected records that eventually succeeded),
    ``n_quarantined``, and per-kind failure counts in ``by_kind``.
    """
    n_affected = n_retried_ok = n_quarantined = 0
    by_kind: Dict[str, int] = {}
    for record in records:
        attempts = getattr(record, "attempts", None)
        if not attempts:
            continue
        n_affected += 1
        if attempts_quarantined(attempts):
            n_quarantined += 1
        else:
            n_retried_ok += 1
        for a in attempts:
            kind = str(a.get("kind", KIND_EVALUATOR_ERROR))
            by_kind[kind] = by_kind.get(kind, 0) + 1
    return {
        "n_affected": n_affected,
        "n_retried_ok": n_retried_ok,
        "n_quarantined": n_quarantined,
        "by_kind": dict(sorted(by_kind.items())),
    }


__all__ = [
    "FAULT_KINDS",
    "KIND_TIMEOUT",
    "KIND_CRASH",
    "KIND_EVALUATOR_ERROR",
    "KIND_INVALID",
    "EvaluationFault",
    "EvaluationTimeout",
    "WorkerCrash",
    "EvaluatorError",
    "InvalidResult",
    "FaultPolicy",
    "FaultInjectingEvaluator",
    "call_with_policy",
    "config_identity",
    "fault_from_error",
    "wrap_failure",
    "current_attempt",
    "attempts_quarantined",
    "summarize_faults",
]
