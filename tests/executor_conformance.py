"""Shared executor contract suite + helpers (importable, not collected).

The :class:`EvaluationExecutor` promises the same observable contract no
matter which backend fans the evaluations out:

* **bit-identity vs serial** — histories and metric lists equal the
  one-worker thread run, byte for byte,
* **submission-order gather** — results resolve in proposal order, never
  completion order,
* **dedup / memoization** — in-flight and cached duplicates are free and
  the call counts do not depend on the worker count,
* **partial-batch (overlap) determinism** — ``overlap_fraction`` runs are
  reproducible and ``overlap_fraction=1.0`` equals serial,
* **worker-death recovery** — a worker dying mid-evaluation is recovered
  (resubmission bounded by the :class:`FaultPolicy`, then quarantine),
* **resume equivalence** — a killed-and-resumed study equals the
  uninterrupted one,
* **pool lifecycle** — one worker pool serves every batch until ``close()``
  (or leaving the context manager) releases it; a closed executor refuses
  work.

``tests/test_executor_conformance.py`` instantiates the suite for every
backend in :data:`BACKENDS`; ``test_engine.py`` / ``test_faults.py`` /
``test_service.py`` import the shared helpers instead of keeping their own
copies.  The module deliberately has no ``test_`` prefix so pytest does not
collect it twice.

Socket workers build their evaluator from a JSON spec, never from code, so
the toy black boxes are one registered evaluator type, ``"toy"``, whose spec
names its variant in the fixed :data:`TOY_VARIANTS` table.  Importing this
module registers it: ``workers: "local"`` threads see it through the shared
registry, and worker processes are launched through ``toy_eval_worker.py``,
which imports it first.  Call counting goes through marker files, the one
channel every backend shares.
"""

from __future__ import annotations

import faulthandler
import functools
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest

from repro.core.executor import EvaluationExecutor
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.parameters import BooleanParameter, OrdinalParameter
from repro.core.registry import EvaluatorBinding, register_evaluator
from repro.core.scenario import Scenario, ScenarioError
from repro.core.space import DesignSpace
from repro.core.study import Study, build_evaluator

#: Every backend the executor supports; the conformance suite runs against all.
BACKENDS = ("thread", "socket")

#: Default wall-clock ceiling for anything involving sockets or subprocesses.
#: Generous compared to the expected runtime (well under a second) so only a
#: genuine hang trips it, but finite so CI never waits for the global timeout.
DEADLINE_S = 60.0

#: Fast heartbeat so worker-death detection fits inside test deadlines.
SOCKET_TRANSPORT = {"heartbeat_s": 0.5}

SPACE_SPECS = [
    {"type": "ordinal", "name": "a", "values": [1, 2, 4, 8], "default": 1},
    {"type": "ordinal", "name": "b", "values": [0.1, 0.2, 0.4], "default": 0.1},
    {"type": "boolean", "name": "fast", "default": False},
]


def make_space() -> DesignSpace:
    return DesignSpace(
        [
            OrdinalParameter("a", [1, 2, 4, 8], default=1),
            OrdinalParameter("b", [0.1, 0.2, 0.4], default=0.1),
            BooleanParameter("fast", default=False),
        ],
        name="toy",
    )


def make_objectives() -> ObjectiveSet:
    return ObjectiveSet([Objective("err"), Objective("cost")])


# ---------------------------------------------------------------------------
# Shared evaluation functions (the "toy" evaluator's variants)
# ---------------------------------------------------------------------------


def toy_evaluate(config):
    """The shared deterministic toy black box.

    Tolerates spaces without a ``fast`` parameter (treated as ``False``) so
    the same function serves the service tests' two-parameter space.
    """
    a, b = float(config["a"]), float(config["b"])
    fast = bool(config.get("fast", False))
    return {
        "err": 0.05 * a + 0.3 * b + (0.25 if fast else 0.0),
        "cost": 1.0 / a + 0.5 * b + (0.0 if fast else 0.2),
    }


def slow_toy_evaluate(config):
    """``toy_evaluate`` with a small sleep: widens kill/preemption windows."""
    time.sleep(0.05)
    return toy_evaluate(config)


def drill_evaluate(config):
    """``toy_evaluate`` slowed enough to outlast subprocess worker startup.

    The eval-worker SIGKILL drill spawns real ``python -m repro`` processes
    (~1s interpreter startup each); the study must still be mid-flight when
    the last worker joins and one of them is killed.
    """
    time.sleep(0.3)
    return toy_evaluate(config)


def slow_first_evaluate(config):
    """The first-submitted (fast) configurations finish last."""
    if bool(config.get("fast", False)):
        time.sleep(0.05)
    return toy_evaluate(config)


def counting_evaluate(counter_dir, config):
    """``toy_evaluate`` that drops one marker file per invocation.

    File-based counting is the one call-count channel that works for
    threads and socket workers alike; :func:`call_count` reads it back.
    """
    Path(counter_dir, uuid.uuid4().hex).write_text("x")
    return toy_evaluate(config)


def slow_counting_evaluate(counter_dir, config):
    Path(counter_dir, uuid.uuid4().hex).write_text("x")
    time.sleep(0.05)
    return toy_evaluate(config)


def call_count(counter_dir) -> int:
    return len(list(Path(counter_dir).iterdir()))


def board_fire_evaluate(config):
    """Raises (an ordinary exception, not a worker death) on the poison config."""
    if bool(config.get("fast", False)) and float(config["a"]) >= 8:
        raise RuntimeError("board caught fire")
    return toy_evaluate(config)


#: The "toy" evaluator's variants by name; the counting ones take the spec's
#: ``counter_dir`` as their first argument.
TOY_VARIANTS = {
    "toy": toy_evaluate,
    "slow": slow_toy_evaluate,
    "drill": drill_evaluate,
    "slow_first": slow_first_evaluate,
    "counting": counting_evaluate,
    "slow_counting": slow_counting_evaluate,
    "board_fire": board_fire_evaluate,
}
_COUNTING_VARIANTS = ("counting", "slow_counting")


def _validate_toy_spec(spec, path):
    unknown = [k for k in spec if k not in ("type", "variant", "counter_dir")]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in toy evaluator")
    variant = spec.get("variant", "toy")
    if variant not in TOY_VARIANTS:
        raise ScenarioError(f"{path}/variant", f"unknown toy variant {variant!r}")
    if (variant in _COUNTING_VARIANTS) != ("counter_dir" in spec):
        raise ScenarioError(f"{path}/counter_dir", "required by (and only by) counting variants")


@register_evaluator("toy")
def make_toy_evaluator(spec, **_):
    """The toy black box named by ``spec["variant"]`` (looked up, never imported)."""
    fn = TOY_VARIANTS[spec.get("variant", "toy")]
    if "counter_dir" in spec:
        fn = functools.partial(fn, spec["counter_dir"])
    return EvaluatorBinding(fn=fn, info={"type": "toy"})


make_toy_evaluator.validate_spec = _validate_toy_spec


def toy_evaluator_section(variant="toy", counter_dir=None):
    """The scenario ``evaluator`` section of a toy variant."""
    section = {"type": "toy", "variant": variant}
    if counter_dir is not None:
        section["counter_dir"] = str(counter_dir)
    return section


def toy_scenario(variant="toy", counter_dir=None):
    """A scenario whose evaluator is a toy variant over the toy space."""
    return Scenario.from_dict(
        {
            "schema_version": 1,
            "name": "toy",
            "space": {"parameters": SPACE_SPECS},
            "objectives": [{"name": "err"}, {"name": "cost"}],
            "evaluator": toy_evaluator_section(variant, counter_dir),
        }
    )


def toy_spec(variant="toy", counter_dir=None):
    """The evaluation spec of a toy variant (what socket workers receive)."""
    return toy_scenario(variant, counter_dir).evaluation_spec()


def poison_config(space):
    return space.default_configuration().replace(a=8, fast=True)


# ---------------------------------------------------------------------------
# Executor / scenario construction
# ---------------------------------------------------------------------------


def make_executor(variant, backend, n_workers=2, counter_dir=None, **kwargs):
    """An executor of a toy variant for ``backend`` with test-fast transport."""
    if backend == "socket":
        kwargs.setdefault("transport", dict(SOCKET_TRANSPORT))
    evaluator = build_evaluator(toy_scenario(variant, counter_dir))
    return EvaluationExecutor(evaluator, n_workers=n_workers, backend=backend, **kwargs)


def executor_spec(backend, n_workers, overlap_fraction=None, transport=None):
    """The scenario ``executor`` section for ``backend``."""
    spec = {"n_workers": n_workers, "backend": backend}
    if overlap_fraction is not None:
        spec["overlap_fraction"] = overlap_fraction
    if backend == "socket":
        spec["transport"] = dict(SOCKET_TRANSPORT, **(transport or {}))
    elif transport is not None:
        spec["transport"] = dict(transport)
    return spec


def scenario_dict(faults=None, seed=3, n_workers=None, **search_overrides):
    """The shared toy study scenario (random search by default)."""
    search = {"algorithm": "random", "budget": 14}
    search.update(search_overrides)
    out = {
        "schema_version": 1,
        "name": "faults-toy",
        "space": {"parameters": SPACE_SPECS},
        "objectives": [{"name": "err"}, {"name": "cost"}],
        "evaluator": {"type": "function"},
        "search": search,
        "seed": seed,
    }
    if faults is not None:
        out["faults"] = faults
    if n_workers is not None:
        out["executor"] = {"n_workers": n_workers}
    return out


def hist_dump(result_or_history, attempts=True):
    history = getattr(result_or_history, "history", result_or_history)
    if attempts:
        return [
            (dict(r.config), r.metrics, r.source, r.iteration, r.attempts)
            for r in history.records
        ]
    return [(dict(r.config), r.metrics, r.source, r.iteration) for r in history.records]


def socket_scenario(scenario, n_workers, variant="toy", transport=None):
    """``scenario`` drained by socket workers, its evaluator a toy variant."""
    return dict(
        scenario,
        evaluator=toy_evaluator_section(variant),
        executor=executor_spec("socket", n_workers, transport=transport),
    )


def run_history(scenario, n_workers=1, backend="thread", evaluate=toy_evaluate, run_dir=None):
    """History dump of a study run with the given executor configuration.

    Socket runs swap in the toy variant ``evaluate`` names (a host callable
    cannot run on socket workers).
    """
    if backend == "socket":
        variant = next(name for name, fn in TOY_VARIANTS.items() if fn is evaluate)
        scenario = socket_scenario(scenario, n_workers, variant)
    elif n_workers != 1:
        scenario = dict(scenario, executor=executor_spec(backend, n_workers))
    return hist_dump(Study(scenario, evaluate=evaluate).run(run_dir=run_dir))


def reports_dump(result):
    out = []
    for r in result.iterations:
        d = r.to_dict()
        d.pop("surrogate_fit_seconds")  # wall clock, not reproducible
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# Deadlines (satellite: every socket/subprocess wait is bounded + diagnosable)
# ---------------------------------------------------------------------------


def run_with_deadline(fn, timeout=DEADLINE_S, diagnostics=None, label="operation"):
    """Run ``fn()`` in a thread; join with ``timeout``; dump state on a hang.

    On timeout this dumps every thread's stack (faulthandler) plus any
    ``diagnostics()`` mapping (e.g. a broker's :meth:`debug_snapshot`) and
    fails the test instead of hanging until the CI-level kill.
    """
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    thread = threading.Thread(target=target, name=f"deadline:{label}", daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        detail = ""
        if diagnostics is not None:
            try:
                detail = f"\ndiagnostics: {diagnostics()!r}"
            except Exception as exc:  # pragma: no cover - diagnostics best-effort
                detail = f"\ndiagnostics unavailable: {exc!r}"
        faulthandler.dump_traceback(file=sys.stderr)
        pytest.fail(f"{label} exceeded the {timeout:.0f}s deadline{detail}", pytrace=False)
    if "error" in box:
        raise box["error"]
    return box.get("result")


def broker_diagnostics(executor):
    """A diagnostics callback for socket executors (None-safe for others)."""

    def snapshot():
        broker = getattr(executor, "broker", None)
        return broker.debug_snapshot() if broker is not None else {}

    return snapshot


def gather_with_deadline(executor, futures, timeout=DEADLINE_S):
    return run_with_deadline(
        lambda: executor.gather(futures),
        timeout=timeout,
        diagnostics=broker_diagnostics(executor),
        label="gather",
    )


def evaluate_with_deadline(executor, configs, timeout=DEADLINE_S):
    return run_with_deadline(
        lambda: executor.evaluate(configs),
        timeout=timeout,
        diagnostics=broker_diagnostics(executor),
        label="evaluate",
    )


def wait_for(predicate, timeout=DEADLINE_S, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(interval)


# ---------------------------------------------------------------------------
# The contract suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class ExecutorContractSuite:
    """Backend-parametrized executor contract (see module docstring).

    Subclass with a ``Test``-prefixed name to collect it; every method takes
    the ``backend`` parameter injected by the class-level parametrize.
    """

    # -- bit-identity ------------------------------------------------------------------

    def test_evaluate_bit_identical_to_serial(self, backend):
        configs = make_space().sample(6, rng=2)
        serial = [toy_evaluate(c) for c in configs]
        for n_workers in (1, 2, 4):
            with make_executor("toy", backend, n_workers=n_workers) as ex:
                assert evaluate_with_deadline(ex, configs) == serial, n_workers

    def test_history_bit_identical_to_serial(self, backend):
        scenario = scenario_dict(seed=5)
        reference = run_history(scenario)
        for n_workers in (1, 2, 4):
            assert run_history(scenario, n_workers=n_workers, backend=backend) == reference

    def test_results_in_submission_order(self, backend):
        # The first-submitted configurations finish last.
        configs = sorted(make_space().sample(6, rng=2), key=lambda c: not bool(c["fast"]))
        with make_executor("slow_first", backend, n_workers=4) as ex:
            futures, _ = ex.submit(configs)
            results = gather_with_deadline(ex, futures)
        assert results == [toy_evaluate(c) for c in configs]

    # -- dedup / memoization -----------------------------------------------------------

    def test_inflight_deduplication(self, backend, tmp_path):
        config = make_space().sample(1, rng=3)[0]
        with make_executor("slow_counting", backend, n_workers=2, counter_dir=tmp_path) as ex:
            futures_a, _ = ex.submit([config])
            futures_b, _ = ex.submit([config])  # duplicate while in flight
            assert ex.n_evaluations == 1
            ra = gather_with_deadline(ex, futures_a)
            rb = gather_with_deadline(ex, futures_b)
        assert ra == rb and call_count(tmp_path) == 1

    def test_batch_duplicates_single_evaluation(self, backend, tmp_path):
        config = make_space().sample(1, rng=4)[0]
        with make_executor("counting", backend, counter_dir=tmp_path) as ex:
            results = evaluate_with_deadline(ex, [config, config, config])
            assert ex.cache_size == 1 and ex.is_cached(config)
        assert call_count(tmp_path) == 1
        assert results[0] == results[1] == results[2]

    def test_uncached_batch_dedup_matches_across_worker_counts(self, backend, tmp_path):
        config = make_space().sample(1, rng=8)[0]
        counts = {}
        for n_workers in (1, 2):
            counter = tmp_path / f"w{n_workers}"
            counter.mkdir()
            with make_executor(
                "counting", backend, n_workers=n_workers, counter_dir=counter, cache=False
            ) as ex:
                evaluate_with_deadline(ex, [config, config, config])
                counts[n_workers] = (call_count(counter), ex.n_evaluations)
        # Same-batch duplicates are free regardless of worker count, so
        # budget consumption never depends on parallelism.
        assert counts[1] == counts[2] == (1, 1)

    # -- budget accounting -------------------------------------------------------------

    def test_budget_counts_cache_hits_as_free(self, backend):
        with make_executor("toy", backend, max_evaluations=3) as ex:
            configs = make_space().sample(3, rng=0)
            evaluate_with_deadline(ex, configs)
            # Re-evaluating cached configurations consumes no budget.
            again = evaluate_with_deadline(ex, configs)
            assert ex.n_evaluations == 3
            assert again == evaluate_with_deadline(ex, configs)

    def test_partial_prefix_semantics(self, backend):
        with make_executor("toy", backend, max_evaluations=2) as ex:
            configs = make_space().sample(4, rng=1)
            futures, accepted = ex.submit(configs)
            assert accepted == 2
            assert [f.config for f in futures] == configs[:2]
            assert ex.budget_remaining == 0
            gather_with_deadline(ex, futures)

    def test_evaluate_refuses_unaffordable_batch_atomically(self, backend, tmp_path):
        from repro.core.evaluator import EvaluationBudgetExceeded

        with make_executor("counting", backend, counter_dir=tmp_path, max_evaluations=3) as ex:
            configs = make_space().sample(5, rng=9)
            with pytest.raises(EvaluationBudgetExceeded):
                ex.evaluate(configs)
            # The refusal is atomic: nothing ran, no budget was consumed, so
            # the caller can still spend the remaining budget on a smaller batch.
            assert call_count(tmp_path) == 0 and ex.n_evaluations == 0
            assert evaluate_with_deadline(ex, configs[:3]) == [
                toy_evaluate(c) for c in configs[:3]
            ]
            assert ex.n_evaluations == 3

    # -- partial-batch (overlap) determinism -------------------------------------------

    HYPERMAPPER = dict(
        algorithm="hypermapper",
        n_random_samples=8,
        max_iterations=3,
        max_samples_per_iteration=4,
        pool_size=None,
    )

    def _hypermapper_scenario(self, overlap=None, n_workers=1, backend="thread", seed=3):
        scenario = dict(scenario_dict(seed=seed), search=dict(self.HYPERMAPPER))
        if overlap is not None or n_workers != 1 or backend != "thread":
            scenario["executor"] = executor_spec(backend, n_workers, overlap_fraction=overlap)
        if backend == "socket":
            scenario["evaluator"] = toy_evaluator_section()
        return scenario

    def test_async_engine_bit_identical_to_serial(self, backend):
        """HyperMapper over an injected async executor equals the serial run,
        down to the per-iteration reports."""
        from repro.core.optimizer import HyperMapper

        space, objectives = make_space(), make_objectives()
        kw = dict(
            n_random_samples=10,
            max_iterations=4,
            pool_size=None,
            max_samples_per_iteration=6,
            seed=3,
        )
        serial = HyperMapper(space, objectives, toy_evaluate, **kw).run()
        for n_workers in (2, 4):
            with make_executor("toy", backend, n_workers=n_workers) as ex:
                result = HyperMapper(space, objectives, ex, **kw).run()
            assert hist_dump(result) == hist_dump(serial)
            assert reports_dump(result) == reports_dump(serial)

    def test_overlap_full_fraction_equals_serial(self, backend):
        serial = hist_dump(Study(self._hypermapper_scenario(), evaluate=toy_evaluate).run())
        overlap = hist_dump(
            Study(
                self._hypermapper_scenario(overlap=1.0, n_workers=3, backend=backend),
                evaluate=toy_evaluate,
            ).run()
        )
        assert overlap == serial

    def test_overlap_partial_is_deterministic(self, backend):
        runs = [
            Study(
                self._hypermapper_scenario(overlap=0.5, n_workers=3, backend=backend),
                evaluate=toy_evaluate,
            ).run()
            for _ in range(2)
        ]
        assert hist_dump(runs[0]) == hist_dump(runs[1])
        # Every straggler eventually lands, tagged with a real source.
        assert all(r.source in ("random", "active_learning") for r in runs[0].history)

    # -- resume equivalence ------------------------------------------------------------

    def test_kill_and_resume_equals_uninterrupted(self, backend, tmp_path):
        from repro.core.scenario import Scenario

        full_scenario = self._hypermapper_scenario(n_workers=2, backend=backend, seed=7)
        full = run_history(full_scenario)
        killed = dict(
            full_scenario,
            search=dict(full_scenario["search"], max_iterations=1),
        )
        run_dir = tmp_path / "run"
        Study(killed, evaluate=toy_evaluate).run(run_dir=run_dir)
        # Swap the full-budget scenario in and continue from the checkpoint.
        Scenario.from_dict(full_scenario).save(run_dir / "scenario.json")
        resumed = Study.resume(run_dir, evaluate=toy_evaluate)
        assert hist_dump(resumed) == full

    # -- failure wrapping / fault policy -----------------------------------------------

    def test_gather_wraps_failures_with_config_identity(self, backend):
        from repro.core.faults import EvaluatorError, config_identity

        poison = poison_config(make_space())
        with make_executor("board_fire", backend) as ex:
            # The serial thread path raises at submission, pool paths at gather.
            with pytest.raises(EvaluatorError) as excinfo:
                futures, _ = ex.submit([poison])
                gather_with_deadline(ex, futures)
        message = str(excinfo.value)
        assert "RuntimeError" in message and "board caught fire" in message
        assert config_identity(poison) in message

    def test_policy_quarantine_through_executor(self, backend):
        from repro.core.faults import FaultPolicy, attempts_quarantined

        space = make_space()
        policy = FaultPolicy(max_retries=0, quarantine=True, penalty=1e9)
        with make_executor("board_fire", backend, fault_policy=policy) as ex:
            poison = poison_config(space)
            clean = space.default_configuration()
            futures, _ = ex.submit([clean, poison])
            results = gather_with_deadline(ex, futures)
        assert results[0] == toy_evaluate(clean)
        assert results[1] == {"err": 1e9, "cost": 1e9}
        assert futures[0].attempts is None
        assert attempts_quarantined(futures[1].attempts)

    # -- worker death ------------------------------------------------------------------

    def _kill_busy_socket_worker(self, executor, n_workers=2):
        """Wait until a remote worker is mid-evaluation, then sever it."""
        broker = executor.broker
        run_with_deadline(
            lambda: broker.wait_for_workers(n_workers, timeout=DEADLINE_S),
            label="worker connect",
        )
        wait_for(
            lambda: any(
                w["inflight"] is not None for w in broker.debug_snapshot()["workers"]
            ),
            message="a busy worker",
        )
        broker.kill_worker()

    def test_worker_death_recovers_to_success(self, backend):
        """A worker dying mid-batch never loses or corrupts a result."""
        if backend == "thread":
            pytest.skip("thread workers share the test process and cannot die alone")
        configs = make_space().sample(6, rng=2)
        with make_executor("slow", backend) as ex:
            futures, _ = ex.submit(configs)
            self._kill_busy_socket_worker(ex)
            results = gather_with_deadline(ex, futures)
        assert results == [toy_evaluate(c) for c in configs]
        # Socket recovery is silent: a transient worker death leaves no
        # attempt metadata, preserving history byte-identity.
        assert all(f.attempts is None for f in futures)

    def test_persistent_worker_death_quarantines_after_bounded_recoveries(self, backend):
        from repro.core.faults import FaultPolicy, attempts_quarantined

        if backend == "thread":
            pytest.skip("thread workers share the test process and cannot die alone")
        # A zero-retry policy quarantines the in-flight victim of the
        # first worker death instead of resubmitting it.
        strict = FaultPolicy(max_retries=0, quarantine=True, penalty=1e9)
        configs = make_space().sample(6, rng=2)
        with make_executor("slow", backend, fault_policy=strict) as ex:
            futures, _ = ex.submit(configs)
            self._kill_busy_socket_worker(ex)
            results = gather_with_deadline(ex, futures)
        quarantined = [
            i for i, f in enumerate(futures) if attempts_quarantined(f.attempts)
        ]
        assert len(quarantined) == 1
        assert results[quarantined[0]] == {"err": 1e9, "cost": 1e9}
        clean = [r for i, r in enumerate(results) if i != quarantined[0]]
        assert clean == [
            toy_evaluate(c) for i, c in enumerate(configs) if i != quarantined[0]
        ]

    def test_worker_death_without_policy(self, backend):
        if backend == "thread":
            pytest.skip("thread workers share the test process and cannot die alone")
        # Without a policy a transient socket-worker death is silently
        # resubmitted (bounded; the bound-exhaustion path is unit-tested
        # white-box in test_faults.py).
        configs = make_space().sample(4, rng=6)
        with make_executor("slow", backend) as ex:
            futures, _ = ex.submit(configs)
            self._kill_busy_socket_worker(ex)
            assert gather_with_deadline(ex, futures) == [
                toy_evaluate(c) for c in configs
            ]

    # -- lifecycle ---------------------------------------------------------------------

    def test_closed_executor_rejects_submissions(self, backend):
        ex = make_executor("toy", backend)
        ex.close()
        with pytest.raises(RuntimeError):
            ex.submit(make_space().sample(1, rng=5))

    def test_pool_persists_across_batches_until_close(self, backend):
        configs = make_space().sample(4, rng=6)
        expected = [toy_evaluate(c) for c in configs]
        with make_executor("toy", backend) as ex:
            assert evaluate_with_deadline(ex, configs[:2]) == expected[:2]
            pool = ex._pool
            assert pool is not None
            assert evaluate_with_deadline(ex, configs[2:]) == expected[2:]
            assert ex._pool is pool  # reused, not rebuilt
        # Leaving the context manager closed the executor and released the pool.
        assert ex._pool is None
        with pytest.raises(RuntimeError):
            ex.evaluate(configs[:1])


__all__ = [
    "BACKENDS",
    "DEADLINE_S",
    "SOCKET_TRANSPORT",
    "SPACE_SPECS",
    "TOY_VARIANTS",
    "ExecutorContractSuite",
    "board_fire_evaluate",
    "broker_diagnostics",
    "call_count",
    "counting_evaluate",
    "drill_evaluate",
    "evaluate_with_deadline",
    "executor_spec",
    "gather_with_deadline",
    "hist_dump",
    "make_executor",
    "make_objectives",
    "make_space",
    "poison_config",
    "reports_dump",
    "run_history",
    "run_with_deadline",
    "scenario_dict",
    "socket_scenario",
    "slow_counting_evaluate",
    "slow_first_evaluate",
    "slow_toy_evaluate",
    "toy_evaluate",
    "toy_evaluator_section",
    "toy_scenario",
    "toy_spec",
    "wait_for",
]
