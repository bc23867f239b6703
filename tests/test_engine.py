"""Tests for the composable search engine.

Covers the acceptance invariants of the engine refactor:

* with the default ``PredictedPareto`` acquisition and a serial executor,
  the engine is **bit-identical** to the pre-refactor inlined loop (a frozen
  copy of which is kept here as the reference implementation),
* the async executor (``n_workers > 1``, overlap on/off) produces a
  bit-identical history/Pareto front to the serial path for deterministic
  evaluators,
* kill-and-resume from a mid-run checkpoint equals the uninterrupted run,
* partial-batch budget exhaustion is deterministic and exact,
* an executor-owned socket broker has all its local workers before the
  first batch.

Executor mechanics (in-flight dedup, caching, submission-order gather,
persistent-pool lifecycle) live in the shared backend-parametrized suite,
``executor_conformance.ExecutorContractSuite``.
"""

import os
import time

import numpy as np
import pytest

from repro.core.acquisition import EpsilonGreedy, PredictedPareto, UncertaintyWeighted, make_acquisition
from repro.core.engine import SearchDriver
from repro.core.evaluator import FunctionEvaluator
from repro.core.executor import EvaluationExecutor
from repro.core.history import History
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.optimizer import HyperMapper
from repro.core.parameters import BooleanParameter, CategoricalParameter, OrdinalParameter
from repro.core.sampling import build_encoded_pool
from repro.core.space import DesignSpace
from repro.utils.rng import as_generator, derive_seed
from repro.utils.timing import Timer


@pytest.fixture()
def toy_space():
    return DesignSpace(
        [
            OrdinalParameter("a", [1, 2, 4, 8], default=1),
            OrdinalParameter("b", [0.1, 0.2, 0.4, 0.8], default=0.1),
            BooleanParameter("fast", default=False),
            CategoricalParameter("mode", ["x", "y", "z"], default="x"),
        ],
        name="toy",
    )


@pytest.fixture()
def big_space():
    # Too big to enumerate into a small pool: forces the sampled-pool path.
    return DesignSpace(
        [OrdinalParameter(f"p{i}", list(range(8))) for i in range(6)]
        + [BooleanParameter("flag")],
        name="big",
    )


@pytest.fixture()
def objectives():
    return ObjectiveSet([Objective("error", limit=0.6), Objective("runtime")])


def toy_evaluate(config):
    a, b, fast = float(config["a"]), float(config["b"]), bool(config["fast"])
    m = {"x": 0.0, "y": 0.05, "z": 0.1}[config["mode"]]
    error = 0.05 * a + 0.3 * b + (0.25 if fast else 0.0) + m
    runtime = 1.0 / a + 0.5 * b + (0.0 if fast else 0.2) + 0.3 * m
    return {"error": error, "runtime": runtime}


def big_evaluate(config):
    vals = [float(config[f"p{i}"]) for i in range(6)]
    error = sum(v * 0.02 * (i + 1) for i, v in enumerate(vals)) + (0.1 if config["flag"] else 0.0)
    runtime = 2.0 / (1.0 + sum(vals)) + 0.05 * vals[0]
    return {"error": error, "runtime": runtime}


def hist_dump(result_or_history):
    history = getattr(result_or_history, "history", result_or_history)
    return [(dict(r.config), r.metrics, r.source, r.iteration) for r in history.records]


def reports_dump(result):
    out = []
    for r in result.iterations:
        d = r.to_dict()
        d.pop("surrogate_fit_seconds")  # wall clock, not reproducible
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# Frozen reference: the pre-engine HyperMapper.run loop, verbatim semantics.
# ---------------------------------------------------------------------------


def reference_hypermapper_history(
    space,
    objectives,
    fn,
    n_random_samples,
    max_iterations,
    pool_size,
    max_samples_per_iteration,
    seed,
):
    """A frozen copy of the seed ``HyperMapper.run`` loop (history only)."""
    from repro.core.sampling import RandomSampler
    from repro.core.surrogate import MultiObjectiveSurrogate

    inner = FunctionEvaluator(fn, objectives)
    memo = {}

    def evaluate(configs):
        # The seed loop's memo: each distinct configuration runs once.
        missing = [c for c in dict.fromkeys(configs) if c not in memo]
        memo.update(zip(missing, inner.evaluate(missing)))
        return [dict(memo[c]) for c in configs]

    rng = as_generator(derive_seed(seed, "hypermapper"))
    history = History(objectives)

    n_needed = max(n_random_samples - len(history), 0)
    if n_needed > 0:
        random_configs = RandomSampler(space).sample(n_needed, rng=rng)
        metrics = evaluate(random_configs)
        for c, m in zip(random_configs, metrics):
            history.add(c, m, source="random", iteration=0)

    evaluated = history.configuration_set()
    encoded_pool = build_encoded_pool(
        space,
        pool_size,
        rng=rng,
        include=list(evaluated) + [space.default_configuration()],
    )
    pool = encoded_pool.configs

    for iteration in range(1, max_iterations + 1):
        surrogate = MultiObjectiveSurrogate(
            space,
            objectives,
            n_estimators=32,
            min_samples_leaf=2,
            random_state=derive_seed(seed, "surrogate", iteration),
        )
        records = history.records
        train_configs = [r.config for r in records]
        X_train = encoded_pool.rows_for(space, train_configs)
        bin_mapper = encoded_pool.bin_mapper
        prebinned = encoded_pool.binned_rows_for(space, train_configs)
        surrogate.fit_encoded(
            X_train, [r.metrics for r in records], bin_mapper=bin_mapper, prebinned=prebinned
        )
        predicted_idx, predicted_values = surrogate.predicted_pareto_encoded(
            encoded_pool.X, feasible_only=True, pool_index=encoded_pool.bitset_index
        )
        predicted_configs = [pool[int(i)] for i in predicted_idx]
        evaluated = history.configuration_set()
        new_configs = [c for c in predicted_configs if c not in evaluated]
        if max_samples_per_iteration is not None and len(new_configs) > max_samples_per_iteration:
            index_of = {c: i for i, c in enumerate(predicted_configs)}
            order = sorted(new_configs, key=lambda c: tuple(predicted_values[index_of[c]]))
            k = max_samples_per_iteration
            positions = np.unique(np.linspace(0, len(order) - 1, k).round().astype(int))
            selected = [order[int(i)] for i in positions]
            if len(selected) < k:
                remaining = [c for c in order if c not in set(selected)]
                extra_idx = rng.choice(
                    len(remaining), size=min(k - len(selected), len(remaining)), replace=False
                )
                selected.extend(remaining[int(i)] for i in extra_idx)
            new_configs = selected
        if not new_configs:
            break
        metrics = evaluate(new_configs)
        for c, m in zip(new_configs, metrics):
            history.add(c, m, source="active_learning", iteration=iteration)
    return history


class TestSeedLoopEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_enumerated_pool_bit_identical(self, toy_space, objectives, seed):
        kwargs = dict(
            n_random_samples=10, max_iterations=4, pool_size=None, max_samples_per_iteration=6
        )
        reference = reference_hypermapper_history(
            toy_space, objectives, toy_evaluate, seed=seed, **kwargs
        )
        result = HyperMapper(toy_space, objectives, toy_evaluate, seed=seed, **kwargs).run()
        assert hist_dump(result) == hist_dump(reference)

    @pytest.mark.parametrize("seed", [3, 21])
    def test_sampled_pool_bit_identical(self, big_space, objectives, seed):
        kwargs = dict(
            n_random_samples=20, max_iterations=3, pool_size=400, max_samples_per_iteration=10
        )
        reference = reference_hypermapper_history(
            big_space, objectives, big_evaluate, seed=seed, **kwargs
        )
        result = HyperMapper(big_space, objectives, big_evaluate, seed=seed, **kwargs).run()
        assert hist_dump(result) == hist_dump(reference)

    def test_pareto_front_matches_reference(self, toy_space, objectives):
        kwargs = dict(
            n_random_samples=12, max_iterations=3, pool_size=None, max_samples_per_iteration=5
        )
        reference = reference_hypermapper_history(
            toy_space, objectives, toy_evaluate, seed=5, **kwargs
        )
        result = HyperMapper(toy_space, objectives, toy_evaluate, seed=5, **kwargs).run()
        ref_front = [(dict(r.config), r.metrics) for r in reference.pareto_records()]
        new_front = [(dict(r.config), r.metrics) for r in result.pareto]
        assert new_front == ref_front


class TestAsyncExecutorEquivalence:
    """Engine-side guard only.

    The async-vs-serial bit-identity, overlap determinism, and the rest of
    the executor contract moved to the backend-parametrized suite in
    ``executor_conformance.py`` (collected by ``test_executor_conformance.py``
    for the thread AND socket backends).
    """

    def test_overlap_requires_supporting_strategy(self, toy_space, objectives):
        from repro.core.acquisition import AcquisitionStrategy

        class NoOverlap(AcquisitionStrategy):
            def propose(self, state):
                return None

        with pytest.raises(ValueError):
            SearchDriver(
                toy_space,
                objectives,
                EvaluationExecutor(toy_evaluate, objectives),
                acquisition=NoOverlap(),
                overlap_fraction=0.5,
            )


class TestCheckpointResume:
    KW = dict(n_random_samples=10, max_iterations=4, pool_size=None, max_samples_per_iteration=6, seed=3)

    def _resume_equals_full(self, space, objectives, fn, tmp_path, extra=None):
        extra = dict(extra or {})
        kw = dict(self.KW)
        kw.update(extra)
        ck = os.path.join(str(tmp_path), "run-checkpoint.json")
        full = HyperMapper(space, objectives, fn, **kw).run()
        # "Kill" the run after two iterations; the checkpoint survives.
        partial_kw = dict(kw)
        partial_kw["max_iterations"] = 2
        HyperMapper(space, objectives, fn, checkpoint_path=ck, **partial_kw).run()
        resumed = HyperMapper(space, objectives, fn, **kw).run(resume_from=ck)
        assert hist_dump(resumed) == hist_dump(full)
        assert reports_dump(resumed) == reports_dump(full)
        front_full = [(dict(r.config), r.metrics) for r in full.pareto]
        front_resumed = [(dict(r.config), r.metrics) for r in resumed.pareto]
        assert front_resumed == front_full

    def test_resume_equals_uninterrupted_serial(self, toy_space, objectives, tmp_path):
        self._resume_equals_full(toy_space, objectives, toy_evaluate, tmp_path)

    def test_resume_equals_uninterrupted_async_overlap(self, toy_space, objectives, tmp_path):
        self._resume_equals_full(
            toy_space,
            objectives,
            toy_evaluate,
            tmp_path,
            extra={"n_workers": 3, "overlap_fraction": 0.5},
        )

    def test_resume_after_bootstrap_only(self, toy_space, objectives, tmp_path):
        ck = os.path.join(str(tmp_path), "boot-checkpoint.json")
        kw = dict(self.KW)
        full = HyperMapper(toy_space, objectives, toy_evaluate, **kw).run()
        boot_kw = dict(kw)
        boot_kw["max_iterations"] = 0
        HyperMapper(toy_space, objectives, toy_evaluate, checkpoint_path=ck, **boot_kw).run()
        resumed = HyperMapper(toy_space, objectives, toy_evaluate, **kw).run(resume_from=ck)
        assert hist_dump(resumed) == hist_dump(full)

    def test_resume_of_converged_run_stays_converged(self, toy_space, objectives, tmp_path):
        # No per-iteration cap and plenty of iterations: the search converges
        # (empty predicted-front proposal) before max_iterations.
        kw = dict(n_random_samples=10, max_iterations=10, pool_size=None,
                  max_samples_per_iteration=None, seed=1)
        ck = os.path.join(str(tmp_path), "conv-checkpoint.json")
        full = HyperMapper(toy_space, objectives, toy_evaluate, **kw).run()
        assert len(full.iterations) < 10  # it really converged early
        HyperMapper(toy_space, objectives, toy_evaluate, checkpoint_path=ck, **kw).run()
        calls = []

        def counting(config):
            calls.append(config)
            return toy_evaluate(config)

        resumed = HyperMapper(toy_space, objectives, counting, **kw).run(resume_from=ck)
        # A converged checkpoint is terminal: nothing is re-evaluated and the
        # search is not re-opened with surrogates the original never fitted.
        assert calls == []
        assert hist_dump(resumed) == hist_dump(full)
        assert reports_dump(resumed) == reports_dump(full)

    def test_resume_rejects_mismatched_driver(self, toy_space, objectives, tmp_path):
        ck = os.path.join(str(tmp_path), "mismatch-checkpoint.json")
        kw = dict(self.KW)
        partial_kw = dict(kw)
        partial_kw["max_iterations"] = 1
        HyperMapper(toy_space, objectives, toy_evaluate, checkpoint_path=ck, **partial_kw).run()
        # Wrong master seed: resuming would silently diverge, so it raises.
        wrong_seed = dict(kw)
        wrong_seed["seed"] = 12345
        with pytest.raises(ValueError, match="master seed"):
            HyperMapper(toy_space, objectives, toy_evaluate, **wrong_seed).run(resume_from=ck)
        # Wrong driver family (rng label): also rejected.
        from repro.core.baselines import RandomSearch

        rs = RandomSearch(toy_space, objectives, toy_evaluate, seed=kw["seed"])
        with pytest.raises(ValueError, match="cannot resume"):
            rs._driver(n_random_samples=5).run(resume_from=ck)

    def test_resume_excludes_initial_history(self, toy_space, objectives, tmp_path):
        ck = os.path.join(str(tmp_path), "excl-checkpoint.json")
        kw = dict(self.KW)
        partial_kw = dict(kw)
        partial_kw["max_iterations"] = 1
        HyperMapper(toy_space, objectives, toy_evaluate, checkpoint_path=ck, **partial_kw).run()
        warm = History(objectives)
        with pytest.raises(ValueError, match="mutually exclusive"):
            HyperMapper(toy_space, objectives, toy_evaluate, **kw).run(
                initial_history=warm, resume_from=ck
            )

    def test_overlap_reports_are_internally_consistent(self, toy_space, objectives):
        result = HyperMapper(
            toy_space, objectives, toy_evaluate, n_workers=3, overlap_fraction=0.5, **self.KW
        ).run()
        prev_total = None
        for report in result.iterations:
            if prev_total is not None:
                assert report.n_evaluations_total - prev_total == report.n_new_samples
            prev_total = report.n_evaluations_total

    def test_resume_counts_no_redundant_evaluations(self, toy_space, objectives, tmp_path):
        ck = os.path.join(str(tmp_path), "count-checkpoint.json")
        kw = dict(self.KW)
        partial_kw = dict(kw)
        partial_kw["max_iterations"] = 2
        HyperMapper(toy_space, objectives, toy_evaluate, checkpoint_path=ck, **partial_kw).run()
        calls = []

        def counting(config):
            calls.append(config)
            return toy_evaluate(config)

        full = HyperMapper(toy_space, objectives, toy_evaluate, **kw).run()
        resumed = HyperMapper(toy_space, objectives, counting, **kw).run(resume_from=ck)
        # Only post-checkpoint configurations are re-evaluated.
        n_checkpointed = sum(1 for r in resumed.history.records if r.iteration <= 2)
        assert len(calls) == len(resumed.history) - n_checkpointed
        assert hist_dump(resumed) == hist_dump(full)


POOL_ORDER_SCRIPT = """
import hashlib, json
import repro.core.engine as engine
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.optimizer import HyperMapper
from repro.slambench.parameters import kfusion_design_space

pools = []
build = engine.build_encoded_pool
def capture(*args, **kwargs):
    pools.append(build(*args, **kwargs))
    return pools[-1]
engine.build_encoded_pool = capture

def evaluate(config):
    x = sum(float(v) for v in config.values())
    return {"err": x % 1.0, "cost": 1.0 / (1.0 + x)}

space = kfusion_design_space()
objectives = ObjectiveSet([Objective("err"), Objective("cost")])
HyperMapper(space, objectives, evaluate, n_random_samples=30, max_iterations=0, pool_size=300, seed=0).run()
rows = "\\n".join(json.dumps(dict(c), sort_keys=True) for c in pools[0].configs)
print(len(pools[0].configs), hashlib.sha256(rows.encode()).hexdigest())
"""


class TestPoolOrder:
    def test_encoded_pool_order_independent_of_hash_seed(self):
        """The pool's include list follows record order, not ``hash()``."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            done = subprocess.run(
                [sys.executable, "-c", POOL_ORDER_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(done.stdout.split())
        n_rows = int(outputs[0][0])
        assert n_rows > 300  # include rows were appended to the sampled pool
        assert outputs[0] == outputs[1]


class TestBudgetAccounting:
    KW = dict(n_random_samples=10, max_iterations=4, pool_size=None, max_samples_per_iteration=6, seed=3)

    def test_partial_batch_budget_exact_and_deterministic(self, toy_space, objectives):
        dumps = []
        for _ in range(2):
            executor = EvaluationExecutor(toy_evaluate, objectives, max_evaluations=17)
            result = HyperMapper(toy_space, objectives, executor, **self.KW).run()
            assert executor.n_evaluations == 17
            assert len(result.history) == 17  # the affordable prefix, exactly
            dumps.append(hist_dump(result))
        assert dumps[0] == dumps[1]

    def test_budget_adopted_from_wrapped_evaluator(self, toy_space, objectives):
        inner = FunctionEvaluator(toy_evaluate, objectives, max_evaluations=13)
        result = HyperMapper(toy_space, objectives, inner, **self.KW).run()
        # The engine enforces the budget prefix-wise instead of letting the
        # wrapped evaluator refuse whole batches.
        assert inner.n_evaluations == 13
        assert len(result.history) == 13

    def test_baselines_survive_budget_exhaustion(self, toy_space, objectives):
        from repro.core.baselines import BanditSearch, EvolutionarySearch, LocalSearch

        # The executor budget may cut a proposal's accepted batch to zero;
        # strategies must never observe an empty batch (regression: the
        # local-search strategy crashed on min() of an empty sequence).
        for budget in (6, 11):
            executor = EvaluationExecutor(toy_evaluate, objectives, max_evaluations=budget)
            result = LocalSearch(toy_space, objectives, executor, n_restarts=2, seed=0).run(30)
            assert len(result.history) <= budget
        for search_cls in (EvolutionarySearch, BanditSearch):
            executor = EvaluationExecutor(toy_evaluate, objectives, max_evaluations=9)
            result = search_cls(toy_space, objectives, executor, seed=0).run(24)
            assert len(result.history) <= 9


class TestSocketPoolStartup:
    """An executor-owned broker's ``workers: "local"`` threads register
    before the first batch; an external fleet is not waited for."""

    TRANSPORT = {"heartbeat_s": 0.5}

    def test_local_workers_register_before_first_batch(self):
        # The conformance suite's toy evaluator plugin, which workers can build.
        from executor_conformance import make_executor, make_space
        from executor_conformance import toy_evaluate as plugin_evaluate

        configs = make_space().sample(6, rng=1)
        with make_executor("toy", "socket", n_workers=3, transport=self.TRANSPORT) as ex:
            assert ex.broker.n_workers_connected == 3
            assert ex.evaluate(configs) == [plugin_evaluate(c) for c in configs]
            assert len(ex.broker.debug_snapshot()["workers"]) == 3

    def test_external_workers_are_not_waited_for(self):
        from executor_conformance import make_executor

        transport = dict(self.TRANSPORT, workers="external")
        with make_executor("toy", "socket", n_workers=2, transport=transport) as ex:
            start = time.monotonic()
            broker = ex.broker
            assert time.monotonic() - start < 5.0
            assert broker.n_workers_connected == 0


class TestAcquisitionStrategies:
    KW = dict(n_random_samples=10, max_iterations=3, pool_size=None, max_samples_per_iteration=5, seed=11)

    def test_epsilon_zero_equals_predicted_pareto(self, toy_space, objectives):
        base = HyperMapper(toy_space, objectives, toy_evaluate, **self.KW).run()
        eps0 = HyperMapper(
            toy_space, objectives, toy_evaluate, acquisition=EpsilonGreedy(epsilon=0.0), **self.KW
        ).run()
        assert hist_dump(eps0) == hist_dump(base)

    @pytest.mark.parametrize(
        "acquisition",
        [UncertaintyWeighted(beta=1.0), EpsilonGreedy(epsilon=0.25), "uncertainty_weighted", "epsilon_greedy"],
    )
    def test_variants_run_and_are_deterministic(self, toy_space, objectives, acquisition):
        def fresh(a):
            return make_acquisition(a) if isinstance(a, str) else type(a)(**(
                {"beta": a.beta} if isinstance(a, UncertaintyWeighted) else {"epsilon": a.epsilon}
            ))

        r1 = HyperMapper(
            toy_space, objectives, toy_evaluate, acquisition=fresh(acquisition), **self.KW
        ).run()
        r2 = HyperMapper(
            toy_space, objectives, toy_evaluate, acquisition=fresh(acquisition), **self.KW
        ).run()
        assert hist_dump(r1) == hist_dump(r2)
        assert len(r1.pareto) >= 1
        # Proposals never repeat an evaluated configuration.
        configs = [r.config for r in r1.history.records]
        assert len(configs) == len(set(configs))

    def test_epsilon_greedy_explores(self, toy_space, objectives):
        base = HyperMapper(toy_space, objectives, toy_evaluate, **self.KW).run()
        eps = HyperMapper(
            toy_space, objectives, toy_evaluate, acquisition=EpsilonGreedy(epsilon=0.5), **self.KW
        ).run()
        assert hist_dump(eps) != hist_dump(base)

    def test_unknown_acquisition_rejected(self, toy_space, objectives):
        with pytest.raises(ValueError):
            make_acquisition("no_such_strategy")


class TestEngineBookkeeping:
    def test_fit_seconds_is_per_iteration_lap(self):
        timer = Timer()
        import time

        with timer.lap("fit"):
            time.sleep(0.02)
        with timer.lap("fit"):
            pass
        # ``last`` reports the most recent lap, not the running mean.
        assert timer.last("fit") < 0.01 < timer.mean("fit") * 2
        assert timer.last("missing") == 0.0

    def test_reports_use_last_fit_lap(self, toy_space, objectives):
        result = HyperMapper(
            toy_space,
            objectives,
            toy_evaluate,
            n_random_samples=10,
            max_iterations=3,
            pool_size=None,
            seed=2,
        ).run()
        assert len(result.iterations) >= 2
        for report in result.iterations:
            assert report.surrogate_fit_seconds >= 0.0

    def test_history_from_dicts_roundtrip(self, toy_space, objectives):
        result = HyperMapper(
            toy_space,
            objectives,
            toy_evaluate,
            n_random_samples=8,
            max_iterations=2,
            pool_size=None,
            seed=4,
        ).run()
        revived = History.from_dicts(objectives, result.history.to_dicts(), space=toy_space)
        assert hist_dump(revived) == hist_dump(result.history)
        # Revived configurations hash-compare equal to the originals.
        assert revived.configuration_set() == result.history.configuration_set()

    def test_encoded_pool_position_ranks(self, toy_space):
        pool = build_encoded_pool(toy_space, None)
        c = pool.configs[17]
        assert pool.position(c) == 17
        outsider = toy_space.default_configuration().replace(a=2, b=0.2, fast=True, mode="y")
        # The default pool enumerates the whole space, so any valid config ranks.
        assert pool.position(outsider) is not None

    def test_baselines_share_executor_cache(self, toy_space, objectives):
        from repro.core.baselines import RandomSearch

        calls = []

        def counting(config):
            calls.append(config)
            return toy_evaluate(config)

        with EvaluationExecutor(counting, objectives) as executor:
            r1 = RandomSearch(toy_space, objectives, executor, seed=0).run(15)
            n_after_first = len(calls)
            r2 = RandomSearch(toy_space, objectives, executor, seed=0).run(15)
        assert hist_dump(r1) == hist_dump(r2)
        assert len(calls) == n_after_first  # second run fully served from cache
