"""Admission policies for the live service, and ordered fan-out.

Admission order is a pluggable policy
(:data:`~repro.core.registry.SCHEDULE_POLICY_REGISTRY`) that
:class:`~repro.core.service.OptimizationService` consults whenever a study
slot is free.  A policy is handed the waiting studies (anything with a
``tenant`` and, optionally, a ``priority``) and returns the index of the one
to admit:

* ``"fifo"`` — strict submission order.
* ``"fair_share"`` — round-robin across tenants: the tenant with the fewest
  admitted studies goes next, ties broken by submission order.  With a
  single tenant this degenerates to FIFO.
* ``"preempting"`` (the service's default) — highest priority first
  (higher wins; missing = 0), ties broken by submission order.  The service
  pairs this admission order with actual preemption: when every slot is
  busy, a strictly lower-priority *running* study is parked at its next
  iteration boundary to make room.

Policies only choose *which waiting study starts next*; they never affect a
study's result.

:func:`map_ordered` is the deterministic thread-pool fan-out the crowd app
runs its device fleet through.
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.core.registry import register_schedule_policy

_T = TypeVar("_T")
_R = TypeVar("_R")


@register_schedule_policy("fifo")
def fifo_policy(
    pending: Sequence[Any], started_per_tenant: Mapping[str, int]
) -> int:
    """Admit strictly in submission order."""
    return 0


@register_schedule_policy("fair_share")
def fair_share_policy(
    pending: Sequence[Any], started_per_tenant: Mapping[str, int]
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
    pending: Sequence[Any], started_per_tenant: Mapping[str, int]
) -> int:
    """Admit the highest-priority submission; ties break by queue position.

    The admission half of the live service's priority scheme — the policy
    itself never parks anything (policies only pick from the *pending*
    queue); the service layer performs the matching preemption of running
    studies.
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


__all__ = [
    "MapOrderedError",
    "map_ordered",
    "fifo_policy",
    "fair_share_policy",
    "preempting_policy",
    "submission_priority",
]
