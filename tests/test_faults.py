"""Tests for the fault-tolerance layer (``repro.core.faults``).

Acceptance criteria covered:

* **chaos determinism** — a study with injected faults (drop/delay/corrupt/
  crash from a seeded fault trace) produces bit-identical histories across
  reruns, worker counts (1/2/4), and kill/resume (Hypothesis properties),
* **retries-to-success equivalence** — when every fault is eventually
  retried away, the history and Pareto front equal the fault-free run,
* **quarantine + degraded plumbing** — exhausted retries record penalty
  metrics with ``"quarantined": true`` attempt metadata, the run finishes
  ``"degraded"`` (run.json, report.json, sweep manifest, CLI exit code 1),
* **drain-all fan-out** — ``map_ordered`` runs every item and aggregates
  failures in :class:`MapOrderedError` instead of failing fast,
* **study-level retries** — the scheduler retries a raising study via the
  resume path and treats degraded as terminal.
"""

import gc
import json
import math
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

# The toy problem, scenario builder, and history dump are shared with the
# backend-parametrized executor contract suite (executor_conformance.py).
from executor_conformance import (
    SPACE_SPECS,
    hist_dump,
    make_executor,
    run_history,
    scenario_dict,
    toy_evaluate,
)
from repro.cli import main as cli_main
from repro.core.evaluator import EvaluationBudgetExceeded, FunctionEvaluator
from repro.core.executor import EvaluationExecutor
from repro.core.faults import (
    KIND_CRASH,
    KIND_EVALUATOR_ERROR,
    KIND_INVALID,
    KIND_TIMEOUT,
    EvaluationFault,
    EvaluationTimeout,
    EvaluatorError,
    FaultInjectingEvaluator,
    FaultPolicy,
    InvalidResult,
    WorkerCrash,
    attempts_quarantined,
    call_with_policy,
    config_identity,
    summarize_faults,
    wrap_failure,
)
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.parameters import BooleanParameter, OrdinalParameter
from repro.core.scenario import Scenario, ScenarioError, validate_scenario
from repro.core.scheduler import MapOrderedError, map_ordered
from repro.core.space import DesignSpace
from repro.core.study import Study, StudyResult, run_status
from repro.core.sweep import build_comparison, load_manifest, run_sweep, validate_sweep

settings.register_profile(
    "determinism",
    max_examples=8,
    deadline=None,
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "determinism-explore",
    max_examples=25,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "determinism"))


# ---------------------------------------------------------------------------
# Shared toy problem (imported from executor_conformance)
# ---------------------------------------------------------------------------


@pytest.fixture()
def toy_space():
    return DesignSpace(
        [
            OrdinalParameter("a", [1, 2, 4, 8], default=1),
            OrdinalParameter("b", [0.1, 0.2, 0.4], default=0.1),
            BooleanParameter("fast", default=False),
        ],
        name="toy",
    )


@pytest.fixture()
def objectives():
    return ObjectiveSet([Objective("err"), Objective("cost")])


#: Chaos section that provably quarantines at least one configuration under
#: seed 3 (asserted in TestDegradedPlumbing) while most faults retry away.
CHAOS_FAULTS = {
    "max_retries": 1,
    "backoff_base_s": 0.0,
    "inject": {"drop_rate": 0.3, "corrupt_rate": 0.2, "crash_rate": 0.1},
}


# ---------------------------------------------------------------------------
# FaultPolicy / FaultInjectingEvaluator validation and primitives
# ---------------------------------------------------------------------------


class TestFaultPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"penalty": 0.0},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_jitter": -1.0},
            {"backoff_max_s": -1.0},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)

    def test_from_spec_defaults(self):
        policy = FaultPolicy.from_spec({}, seed=7)
        assert policy.max_retries == 0
        assert policy.timeout_s is None
        assert policy.quarantine is True
        assert policy.penalty == 1e9
        assert policy.seed == 7

    def test_penalty_metrics_are_sign_aware(self):
        objectives = ObjectiveSet([Objective("err"), Objective("fps", minimize=False)])
        policy = FaultPolicy(penalty=100.0)
        assert policy.penalty_metrics(objectives) == {"err": 100.0, "fps": -100.0}

    def test_backoff_is_deterministic_and_capped(self, toy_space):
        config = toy_space.default_configuration()
        policy = FaultPolicy(
            max_retries=3, backoff_base_s=0.5, backoff_factor=2.0,
            backoff_jitter=0.25, backoff_max_s=1.25, seed=11,
        )
        delays = [policy.backoff_delay_s(config, attempt) for attempt in range(3)]
        assert delays == [policy.backoff_delay_s(config, a) for a in range(3)]
        assert all(d <= 1.25 for d in delays)
        assert delays[0] >= 0.5 and delays[2] == 1.25  # base * 2**2 hits the cap
        # A different seed reshuffles the jitter, not the exponential base.
        other = policy.with_seed(12)
        assert [other.backoff_delay_s(config, a) for a in range(3)] != delays

    def test_zero_backoff_never_sleeps(self, toy_space):
        config = toy_space.default_configuration()
        policy = FaultPolicy(max_retries=2)
        assert policy.backoff_delay_s(config, 0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"drop_rate": 1.5}, {"delay_rate": -0.1}, {"corrupt_rate": 2.0},
         {"crash_rate": -1.0}, {"delay_s": -1.0}],
    )
    def test_injector_rejects_invalid_rates(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjectingEvaluator(toy_evaluate, **kwargs)

    def test_injector_with_zero_rates_is_a_passthrough(self, toy_space):
        injector = FaultInjectingEvaluator(toy_evaluate, seed=5)
        for config in toy_space.sample(4, rng=2):
            assert injector(config) == toy_evaluate(config)

    def test_injected_fault_trace_is_seeded(self, toy_space):
        def trace(seed):
            injector = FaultInjectingEvaluator(
                toy_evaluate, drop_rate=0.4, corrupt_rate=0.3, seed=seed
            )
            out = []
            for config in toy_space.sample(12, rng=9):
                try:
                    metrics = injector(config)
                    out.append("corrupt" if math.isnan(metrics["err"]) else "ok")
                except WorkerCrash:
                    out.append("drop")
                except RuntimeError:
                    out.append("crash")
            return out

        first = trace(21)
        assert first == trace(21)
        assert set(first) > {"ok"}  # some faults actually fired
        assert first != trace(22)


# ---------------------------------------------------------------------------
# The retry loop
# ---------------------------------------------------------------------------


class TestCallWithPolicy:
    def _evaluator(self, fn, objectives):
        return FunctionEvaluator(fn, objectives)

    def test_clean_success_has_no_attempts(self, toy_space, objectives):
        config = toy_space.default_configuration()
        metrics, attempts = call_with_policy(
            self._evaluator(toy_evaluate, objectives), config, FaultPolicy(max_retries=2)
        )
        assert metrics == toy_evaluate(config)
        assert attempts is None

    def test_flaky_evaluation_retries_to_success(self, toy_space, objectives):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("transient glitch")
            return toy_evaluate(config)

        config = toy_space.default_configuration()
        metrics, attempts = call_with_policy(
            self._evaluator(flaky, objectives), config, FaultPolicy(max_retries=3)
        )
        assert metrics == toy_evaluate(config)
        assert [a["kind"] for a in attempts] == [KIND_EVALUATOR_ERROR] * 2
        assert [a["attempt"] for a in attempts] == [0, 1]
        assert "transient glitch" in attempts[0]["error"]
        assert not attempts_quarantined(attempts)

    def test_exhausted_retries_quarantine_with_penalty_metrics(self, toy_space, objectives):
        def broken(config):
            raise RuntimeError("always broken")

        config = toy_space.default_configuration()
        policy = FaultPolicy(max_retries=1, quarantine=True, penalty=1e6)
        metrics, attempts = call_with_policy(self._evaluator(broken, objectives), config, policy)
        assert metrics == {"err": 1e6, "cost": 1e6}
        assert len(attempts) == 2
        assert attempts_quarantined(attempts)
        assert attempts[-1]["quarantined"] is True
        assert "quarantined" not in attempts[0]

    def test_without_quarantine_the_typed_fault_escapes(self, toy_space, objectives):
        def broken(config):
            raise RuntimeError("always broken")

        config = toy_space.default_configuration()
        with pytest.raises(EvaluatorError) as excinfo:
            call_with_policy(
                self._evaluator(broken, objectives),
                config,
                FaultPolicy(max_retries=1, quarantine=False),
            )
        assert config_identity(config) in str(excinfo.value)
        assert "2 attempt(s)" in str(excinfo.value)
        assert isinstance(excinfo.value, EvaluationFault)

    def test_nan_metrics_are_classified_invalid(self, toy_space, objectives):
        config = toy_space.default_configuration()
        metrics, attempts = call_with_policy(
            self._evaluator(lambda c: {"err": float("nan"), "cost": 1.0}, objectives),
            config,
            FaultPolicy(quarantine=True),
        )
        assert attempts[-1]["kind"] == KIND_INVALID
        assert attempts_quarantined(attempts)

    def test_missing_objective_is_classified_invalid(self, toy_space, objectives):
        config = toy_space.default_configuration()
        with pytest.raises(InvalidResult):
            call_with_policy(
                self._evaluator(lambda c: {"err": 1.0}, objectives),
                config,
                FaultPolicy(quarantine=False),
            )

    def test_budget_exhaustion_is_never_retried(self, toy_space, objectives):
        calls = {"n": 0}

        def exhausted(config):
            calls["n"] += 1
            raise EvaluationBudgetExceeded("budget spent")

        config = toy_space.default_configuration()
        with pytest.raises(EvaluationBudgetExceeded):
            call_with_policy(
                self._evaluator(exhausted, objectives), config, FaultPolicy(max_retries=5)
            )
        assert calls["n"] == 1

    def test_wall_clock_timeout_is_classified_post_hoc(self, toy_space, objectives):
        def slow(config):
            time.sleep(0.03)
            return toy_evaluate(config)

        config = toy_space.default_configuration()
        metrics, attempts = call_with_policy(
            self._evaluator(slow, objectives),
            config,
            FaultPolicy(timeout_s=0.005, quarantine=True),
        )
        assert attempts[-1]["kind"] == KIND_TIMEOUT
        assert attempts_quarantined(attempts)

    def test_injected_delay_trips_timeout_virtually(self, toy_space, objectives):
        injector = FaultInjectingEvaluator(
            toy_evaluate, delay_rate=1.0, delay_s=120.0, seed=5
        )
        config = toy_space.default_configuration()
        start = time.monotonic()
        with pytest.raises(EvaluationTimeout) as excinfo:
            call_with_policy(
                self._evaluator(injector, objectives),
                config,
                FaultPolicy(timeout_s=1.0, quarantine=False),
            )
        # Virtual time: the 120s "hang" is classified without really sleeping.
        assert time.monotonic() - start < 5.0
        assert "120" in str(excinfo.value)

    def test_summarize_faults_counts(self):
        class R:
            def __init__(self, attempts):
                self.attempts = attempts

        records = [
            R(None),
            R([{"attempt": 0, "kind": "crash", "error": "x"}]),
            R([
                {"attempt": 0, "kind": "timeout", "error": "x"},
                {"attempt": 1, "kind": "timeout", "error": "x", "quarantined": True},
            ]),
        ]
        assert summarize_faults(records) == {
            "n_affected": 2,
            "n_retried_ok": 1,
            "n_quarantined": 1,
            "by_kind": {"crash": 1, "timeout": 2},
        }


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------
# The failure-wrapping, quarantine-through-executor, and real worker-death
# recovery tests (socket workers) are part of the shared
# backend-parametrized contract suite in executor_conformance.py.  What stays
# here: the pure wrap_failure helper, and white-box coverage of the socket
# backend's worker-death resubmission bound (the black-box variant would need
# a worker fleet that keeps dying on schedule).


class TestWrapFailureHelper:
    def test_wrap_failure_helper(self, toy_space):
        config = toy_space.default_configuration()
        wrapped = wrap_failure(config, ValueError("bad"))
        assert isinstance(wrapped, EvaluatorError)
        assert "ValueError: bad" in str(wrapped)
        assert wrapped.config is config


class TestSocketWorkerDeathBound:
    """White-box: the socket backend's bounded resubmission on worker death.

    Drives ``_recover_from_worker_death`` directly — each call simulates the
    broker reporting the future's worker as dead — so the bound, the
    quarantine handoff, and the cache-adoption shortcut are testable without
    orchestrating a fleet of workers that die on cue.
    """

    def _executor(self, objectives, **kwargs):
        return make_executor("toy", "socket", n_workers=1, **kwargs)

    def test_unpolicied_deaths_exhaust_the_default_bound_to_worker_crash(
        self, toy_space, objectives
    ):
        from repro.core.executor import DEFAULT_WORKER_DEATH_RESUBMITS
        from repro.core.transport import WorkerDied

        with self._executor(objectives) as executor:
            futures, _ = executor.submit([toy_space.default_configuration()])
            future = futures[0]
            for _ in range(DEFAULT_WORKER_DEATH_RESUBMITS):
                executor._recover_from_worker_death(future, WorkerDied("drill"))
                assert future._error is None  # still being resubmitted
            executor._recover_from_worker_death(future, WorkerDied("drill"))
            assert isinstance(future._error, WorkerCrash)
            assert config_identity(future.config) in str(future._error)
            with pytest.raises(WorkerCrash):
                executor.gather(futures)

    def test_policy_bound_quarantines_with_crash_attempt_metadata(
        self, toy_space, objectives
    ):
        from repro.core.transport import WorkerDied

        policy = FaultPolicy(max_retries=1, quarantine=True, penalty=1e9)
        with self._executor(objectives, fault_policy=policy) as executor:
            futures, _ = executor.submit([toy_space.default_configuration()])
            future = futures[0]
            executor._recover_from_worker_death(future, WorkerDied("drill"))
            assert future._error is None and future.attempts is None  # resubmitted silently
            executor._recover_from_worker_death(future, WorkerDied("drill"))
            assert executor.gather(futures) == [{"err": 1e9, "cost": 1e9}]
        assert attempts_quarantined(future.attempts)
        assert future.attempts[-1]["kind"] == KIND_CRASH

    def test_cached_result_is_adopted_instead_of_resubmitting(
        self, toy_space, objectives
    ):
        from repro.core.transport import WorkerDied

        config = toy_space.default_configuration()
        with self._executor(objectives) as executor:
            executor.evaluate([config])  # populates the memo cache
            futures, _ = executor.submit([config])
            future = futures[0]
            executor._recover_from_worker_death(future, WorkerDied("drill"))
            # Adopted from the cache: no crash charged, no resubmission.
            assert future._crashes == 0
            assert executor.gather(futures) == [toy_evaluate(config)]
            assert future.attempts is None


class TestNoLeakedPools:
    def test_dropped_executor_shuts_its_pool_down(self, objectives, toy_space):
        executor = EvaluationExecutor(toy_evaluate, objectives, n_workers=2)
        executor.evaluate(toy_space.sample(2, rng=1))
        pool = executor._pool
        assert pool is not None
        del executor
        gc.collect()
        assert pool._shutdown  # __del__ released the workers

    def test_study_owned_executor_is_closed_even_on_crash(self, monkeypatch):
        closed = []
        original = EvaluationExecutor.close

        def tracking_close(self):
            closed.append(self)
            original(self)

        monkeypatch.setattr(EvaluationExecutor, "close", tracking_close)

        def exploding(config):
            raise RuntimeError("boom")

        with pytest.raises(Exception):
            Study(scenario_dict(n_workers=2), evaluate=exploding).run()
        assert len(closed) == 1
        assert closed[0]._pool is None and closed[0]._closed

    def test_injected_executor_stays_open_after_the_run(self, objectives, toy_space):
        scenario = scenario_dict()
        with EvaluationExecutor(toy_evaluate, objectives, n_workers=2) as executor:
            Study(scenario, executor=executor).run()
            # The caller still owns the pool: further work is accepted.
            assert executor.evaluate([toy_space.default_configuration()])


# ---------------------------------------------------------------------------
# Chaos determinism at the study level (the tentpole acceptance)
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    def test_chaos_history_is_bit_identical_across_reruns_and_workers(self):
        scenario = scenario_dict(faults=CHAOS_FAULTS)
        reference = run_history(scenario)
        assert run_history(scenario) == reference
        for n_workers in (2, 4):
            assert run_history(scenario, n_workers=n_workers) == reference, n_workers
        # The chaos actually bit: some records carry attempt metadata.
        assert any(attempts for *_, attempts in reference)

    def test_chaos_history_is_bit_identical_on_socket_workers(self):
        """The inject section travels in the evaluator spec and the policy
        with the executor, so socket workers replay the seeded fault trace."""
        scenario = scenario_dict(faults=CHAOS_FAULTS)
        reference = run_history(scenario)
        for n_workers in (1, 2):
            assert run_history(scenario, n_workers=n_workers, backend="socket") == reference
        assert any(attempts_quarantined(attempts) for *_, attempts in reference)

    def test_retries_to_success_equals_fault_free_run(self):
        clean = scenario_dict(seed=5)
        chaotic = scenario_dict(
            seed=5,
            faults={
                "max_retries": 6,
                "backoff_base_s": 0.0,
                "inject": {"drop_rate": 0.4},
            },
        )
        clean_hist = run_history(clean)
        chaos_hist = run_history(chaotic)
        # Identical evaluations (metadata aside): same configs, metrics,
        # sources, iterations — so the Pareto front is identical too.
        assert [(c, m, s, i) for c, m, s, i, _ in chaos_hist] == [
            (c, m, s, i) for c, m, s, i, _ in clean_hist
        ]
        assert any(attempts for *_, attempts in chaos_hist)  # faults did fire
        assert not any(attempts_quarantined(a) for *_, a in chaos_hist)
        clean_front = Study(clean, evaluate=toy_evaluate).run().pareto
        chaos_front = Study(chaotic, evaluate=toy_evaluate).run().pareto
        assert [(dict(r.config), r.metrics) for r in chaos_front] == [
            (dict(r.config), r.metrics) for r in clean_front
        ]

    @given(
        seed=st.integers(0, 10_000),
        drop_rate=st.sampled_from([0.0, 0.15, 0.35]),
        corrupt_rate=st.sampled_from([0.0, 0.2]),
        max_retries=st.integers(0, 2),
    )
    def test_property_chaos_runs_are_deterministic(
        self, seed, drop_rate, corrupt_rate, max_retries
    ):
        scenario = scenario_dict(
            seed=seed,
            faults={
                "max_retries": max_retries,
                "backoff_base_s": 0.0,
                "inject": {"drop_rate": drop_rate, "corrupt_rate": corrupt_rate},
            },
            budget=10,
        )
        reference = run_history(scenario)
        assert run_history(scenario) == reference
        for n_workers in (2, 4):
            assert run_history(scenario, n_workers=n_workers) == reference, n_workers

    @given(seed=st.integers(0, 10_000), kill_at=st.integers(0, 2))
    def test_property_chaos_kill_resume_equals_uninterrupted(self, seed, kill_at):
        search = {
            "algorithm": "hypermapper",
            "n_random_samples": 6,
            "max_iterations": 3,
            "max_samples_per_iteration": 4,
            "pool_size": None,
        }
        faults = {
            "max_retries": 1,
            "backoff_base_s": 0.0,
            "inject": {"drop_rate": 0.25, "corrupt_rate": 0.15},
        }
        full_scenario = dict(
            scenario_dict(faults=faults, seed=seed), search=search, name="chaos-resume"
        )
        full = run_history(full_scenario)
        killed = dict(full_scenario, search=dict(search, max_iterations=kill_at))
        with tempfile.TemporaryDirectory() as td:
            run_dir = Path(td) / "run"
            Study(killed, evaluate=toy_evaluate).run(run_dir=run_dir)
            Scenario.from_dict(full_scenario).save(run_dir / "scenario.json")
            resumed = Study.resume(run_dir, evaluate=toy_evaluate)
            assert hist_dump(resumed) == full
            # The persisted stream carries the same attempt metadata.
            lines = [
                json.loads(line)
                for line in (run_dir / "history.jsonl").read_text().splitlines()
            ]
            assert [
                (d["config"], d["metrics"], d["source"], d["iteration"], d.get("attempts"))
                for d in lines
            ] == full


# ---------------------------------------------------------------------------
# Degraded plumbing: run.json, report.json, CLI exit codes
# ---------------------------------------------------------------------------


class TestDegradedPlumbing:
    def test_quarantine_marks_the_run_degraded(self, tmp_path):
        run_dir = tmp_path / "run"
        result = Study(scenario_dict(faults=CHAOS_FAULTS), evaluate=toy_evaluate).run(
            run_dir=run_dir
        )
        assert result.is_degraded
        assert run_status(run_dir) == "degraded"
        summary = result.fault_summary()
        assert summary["n_quarantined"] >= 1
        assert summary["n_affected"] >= summary["n_quarantined"]
        assert sum(summary["by_kind"].values()) >= summary["n_affected"]
        # report.json carries the summary; reloading reproduces the state.
        report = json.loads((run_dir / "report.json").read_text())
        assert report["faults"] == summary
        assert StudyResult.load(run_dir).is_degraded
        # "attempts" appears exactly on the affected history lines.
        lines = [
            json.loads(line)
            for line in (run_dir / "history.jsonl").read_text().splitlines()
        ]
        assert sum("attempts" in d for d in lines) == summary["n_affected"]

    def test_fault_free_run_artifacts_are_unchanged(self, tmp_path):
        run_dir = tmp_path / "run"
        result = Study(scenario_dict(), evaluate=toy_evaluate).run(run_dir=run_dir)
        assert not result.is_degraded
        assert run_status(run_dir) == "complete"
        lines = [
            json.loads(line)
            for line in (run_dir / "history.jsonl").read_text().splitlines()
        ]
        assert all(set(d) == {"config", "metrics", "source", "iteration"} for d in lines)
        assert json.loads((run_dir / "report.json").read_text())["faults"] == {
            "n_affected": 0, "n_retried_ok": 0, "n_quarantined": 0, "by_kind": {},
        }

    def test_quarantined_records_never_reach_the_pareto_front(self):
        result = Study(scenario_dict(faults=CHAOS_FAULTS), evaluate=toy_evaluate).run()
        assert result.is_degraded
        quarantined = [
            r for r in result.history.records if attempts_quarantined(r.attempts)
        ]
        assert quarantined
        front_configs = {r.config for r in result.pareto}
        assert all(r.config not in front_configs for r in quarantined)
        assert all(r.metrics["err"] == 1e9 for r in quarantined)

    def test_cli_run_reports_degraded_with_exit_code_1(self, tmp_path, capsys):
        scenario_path = tmp_path / "chaos.json"
        scenario_path.write_text(json.dumps({
            "schema_version": 1,
            "name": "cli-chaos",
            "evaluator": {
                "type": "slambench", "workload": "kfusion", "device": "odroid-xu3",
                "n_frames": 8, "width": 32, "height": 24, "dataset_seed": 3,
            },
            "search": {"algorithm": "random", "budget": 10},
            "seed": 7,
            "faults": {
                "max_retries": 0,
                "inject": {"drop_rate": 0.35, "corrupt_rate": 0.2},
            },
        }))
        run_dir = tmp_path / "run"
        code = cli_main(["run", str(scenario_path), "--run-dir", str(run_dir), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert "degraded" in err and "quarantined" in err
        assert run_status(run_dir) == "degraded"
        # resume of a degraded run replays to the same degraded exit code.
        assert cli_main(["resume", str(run_dir), "--quiet"]) == 1
        assert "degraded" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# map_ordered drain-all (satellite)
# ---------------------------------------------------------------------------


class TestMapOrderedDrainAll:
    @pytest.mark.parametrize("max_concurrent", [1, 3])
    def test_all_items_run_and_failures_aggregate(self, max_concurrent):
        ran = []

        def fn(i):
            ran.append(i)
            if i in (1, 3):
                raise ValueError(f"item {i} broke")
            return i * i

        with pytest.raises(MapOrderedError) as excinfo:
            map_ordered(fn, range(5), max_concurrent=max_concurrent)
        assert sorted(ran) == [0, 1, 2, 3, 4]  # drained, not fail-fast
        assert [i for i, _ in excinfo.value.failures] == [1, 3]
        assert all(isinstance(e, ValueError) for _, e in excinfo.value.failures)
        assert "2 of 5 items failed" in str(excinfo.value)

    def test_success_path_is_unchanged(self):
        items = list(range(10))
        assert map_ordered(lambda x: x + 1, items, max_concurrent=4) == [
            x + 1 for x in items
        ]


# ---------------------------------------------------------------------------
# Sweep scheduler section: study-level retries, degraded outcomes
# ---------------------------------------------------------------------------


def one_point_sweep(base, seed, **scheduler):
    """A sweep of one point (an axis over the seed: explicit points need an
    override anyway)."""
    return {
        "schema_version": 1,
        "name": "retry",
        "base": base,
        "axes": {"seed": [seed]},
        "scheduler": scheduler,
    }


class TestSchedulerStudyRetries:
    def test_transient_study_failure_retries_via_resume(self, tmp_path):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient study failure")
            return toy_evaluate(config)

        reference = hist_dump(Study(scenario_dict(seed=9), evaluate=toy_evaluate).run())
        spec = one_point_sweep(scenario_dict(), 9, study_max_retries=1)
        result = run_sweep(spec, tmp_path / "sweep", evaluate=flaky)
        (outcome,) = result.outcomes.values()
        assert outcome.status == "complete"
        assert hist_dump(outcome.result) == reference

    def test_exhausted_study_retries_report_failed(self, tmp_path):
        calls = []

        def broken(config):
            calls.append(config)
            raise RuntimeError("permanently broken")

        spec = one_point_sweep(scenario_dict(), 3, study_max_retries=2, retry_backoff_s=0.01)
        result = run_sweep(spec, tmp_path / "sweep", evaluate=broken)
        (outcome,) = result.outcomes.values()
        assert outcome.status == "failed"
        assert "permanently broken" in outcome.error
        assert result.manifest["points"][0]["error"] == outcome.error
        assert len(calls) == 3  # the first attempt and two retries

    def test_degraded_study_is_terminal_not_retried(self, tmp_path):
        calls = []

        def counting(config):
            calls.append(config)
            return toy_evaluate(config)

        spec = one_point_sweep(scenario_dict(faults=CHAOS_FAULTS), 3, study_max_retries=3)
        result = run_sweep(spec, tmp_path / "sweep", evaluate=counting)
        (outcome,) = result.outcomes.values()
        assert outcome.status == "degraded"
        assert not outcome.reused
        # Resuming the sweep reloads the degraded point: nothing re-runs.
        calls.clear()
        again = run_sweep(spec, tmp_path / "sweep", evaluate=counting, resume=True)
        (outcome,) = again.outcomes.values()
        assert outcome.status == "degraded" and outcome.reused
        assert calls == []


# ---------------------------------------------------------------------------
# Scenario / sweep spec validation
# ---------------------------------------------------------------------------


class TestFaultsSpecValidation:
    def test_defaults_materialize_within_the_section(self):
        out = validate_scenario(scenario_dict(faults={"max_retries": 2}))
        assert out["faults"]["max_retries"] == 2
        assert out["faults"]["quarantine"] is True
        assert out["faults"]["timeout_s"] is None
        assert out["faults"]["inject"] is None

    def test_absent_section_is_not_materialized(self):
        out = validate_scenario(scenario_dict())
        assert "faults" not in out
        assert Scenario.from_dict(scenario_dict()).faults_spec is None

    def test_round_trips_through_scenario(self):
        scenario = Scenario.from_dict(scenario_dict(faults=CHAOS_FAULTS))
        spec = scenario.faults_spec
        assert spec["max_retries"] == 1
        assert spec["inject"]["drop_rate"] == 0.3
        again = Scenario.from_dict(scenario.to_dict())
        assert again.faults_spec == spec

    @pytest.mark.parametrize(
        "faults, match",
        [
            ({"nope": 1}, "/faults"),
            ({"max_retries": -1}, "max_retries"),
            ({"timeout_s": 0}, "timeout_s"),
            ({"inject": {"drop_rate": 1.5}}, "drop_rate"),
            ({"inject": {"bogus": 0.1}}, "/faults/inject"),
            ({"inject": {"delay_s": -1}}, "delay_s"),
        ],
    )
    def test_rejects_invalid_sections(self, faults, match):
        with pytest.raises(ScenarioError, match=match):
            validate_scenario(scenario_dict(faults=faults))

    def test_sweep_scheduler_retry_keys_validate(self):
        spec = {
            "schema_version": 1,
            "name": "s",
            "base": scenario_dict(),
            "axes": {"seed": [1, 2]},
            "scheduler": {"study_max_retries": 2, "retry_backoff_s": 0.5},
        }
        out = validate_sweep(spec)
        assert out["scheduler"]["study_max_retries"] == 2
        assert out["scheduler"]["retry_backoff_s"] == 0.5
        # Undeclared keys are not materialized (golden manifests unchanged).
        plain = validate_sweep({k: v for k, v in spec.items() if k != "scheduler"})
        assert "study_max_retries" not in plain["scheduler"]
        with pytest.raises((ScenarioError, Exception)):
            validate_sweep(dict(spec, scheduler={"study_max_retries": -1}))
        with pytest.raises((ScenarioError, Exception)):
            validate_sweep(dict(spec, scheduler={"retry_backoff_s": -0.5}))


# ---------------------------------------------------------------------------
# Sweeps over chaos: degraded status propagation
# ---------------------------------------------------------------------------


class TestSweepDegraded:
    def _chaos_sweep(self):
        return {
            "schema_version": 1,
            "name": "chaos-sweep",
            "base": scenario_dict(faults=CHAOS_FAULTS),
            "axes": {"seed": [3, 5]},
            "scheduler": {"max_concurrent_studies": 2},
        }

    def test_degraded_points_propagate_to_manifest_and_comparison(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        result = run_sweep(self._chaos_sweep(), sweep_dir, evaluate=toy_evaluate)
        manifest = load_manifest(sweep_dir)
        statuses = [p["status"] for p in manifest["points"]]
        assert set(statuses) <= {"complete", "degraded"}
        assert "degraded" in statuses
        assert manifest["status"] == "degraded"
        assert result.status == "degraded"
        assert result.n_failed == 0  # degraded is not failed
        comparison = build_comparison(sweep_dir, write=True)
        assert comparison["status"] == "degraded"
        for entry, status in zip(comparison["points"], statuses):
            assert entry["status"] == status
            if entry.get("faults"):
                assert entry["faults"]["n_affected"] >= 1
        assert any(entry.get("faults") for entry in comparison["points"])
        assert "degraded" in (sweep_dir / "comparison.md").read_text()

    def test_degraded_sweep_is_bit_identical_on_rerun(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_sweep(self._chaos_sweep(), first, evaluate=toy_evaluate)
        run_sweep(self._chaos_sweep(), second, evaluate=toy_evaluate)
        for point in load_manifest(first)["points"]:
            a = (first / point["run_dir"] / "history.jsonl").read_bytes()
            b = (second / point["run_dir"] / "history.jsonl").read_bytes()
            assert a == b, point["point_id"]

    def test_resume_reloads_degraded_points_without_rerunning(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        run_sweep(self._chaos_sweep(), sweep_dir, evaluate=toy_evaluate)
        before = {
            p["point_id"]: (sweep_dir / p["run_dir"] / "history.jsonl").read_bytes()
            for p in load_manifest(sweep_dir)["points"]
        }
        calls = []

        def counting(config):
            calls.append(config)
            return toy_evaluate(config)

        result = run_sweep(self._chaos_sweep(), sweep_dir, evaluate=counting, resume=True)
        assert result.status == "degraded"
        assert calls == []  # every point was reloaded, none re-ran
        for point in load_manifest(sweep_dir)["points"]:
            assert (
                sweep_dir / point["run_dir"] / "history.jsonl"
            ).read_bytes() == before[point["point_id"]]
