"""Tests for the evaluator layer, surrogate, HyperMapper optimizer and baselines.

A cheap synthetic bi-objective black box (no SLAM simulation) keeps these
fast while still exercising the full Algorithm 1 loop.
"""

import numpy as np
import pytest

from repro.core.baselines import BanditSearch, EvolutionarySearch, GridSearch, LocalSearch, RandomSearch
from repro.core.evaluator import EvaluationBudgetExceeded, FunctionEvaluator
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.optimizer import HyperMapper
from repro.core.parameters import BooleanParameter, OrdinalParameter, RealParameter
from repro.core.sampling import GridSampler, RandomSampler, build_pool
from repro.core.space import DesignSpace
from repro.core.surrogate import MultiObjectiveSurrogate


@pytest.fixture()
def toy_space():
    return DesignSpace(
        [
            OrdinalParameter("a", [1, 2, 4, 8], default=1),
            OrdinalParameter("b", [0.1, 0.2, 0.4, 0.8], default=0.1),
            BooleanParameter("fast", default=False),
        ],
        name="toy",
    )


@pytest.fixture()
def toy_objectives():
    return ObjectiveSet([Objective("error", limit=0.6), Objective("runtime")])


def toy_evaluate(config):
    """A conflicting bi-objective function: bigger `a` is faster but less accurate."""
    a, b, fast = float(config["a"]), float(config["b"]), bool(config["fast"])
    error = 0.05 * a + 0.3 * b + (0.25 if fast else 0.0)
    runtime = 1.0 / a + 0.5 * b + (0.0 if fast else 0.2)
    return {"error": error, "runtime": runtime}


class TestEvaluators:
    def test_function_evaluator_counts_and_budget(self, toy_space, toy_objectives):
        ev = FunctionEvaluator(toy_evaluate, toy_objectives, max_evaluations=3)
        configs = toy_space.sample(3, rng=0)
        results = ev.evaluate(configs)
        assert len(results) == 3 and ev.n_evaluations == 3
        with pytest.raises(EvaluationBudgetExceeded):
            ev.evaluate(toy_space.sample(1, rng=1))

    def test_missing_objective_detected(self, toy_space, toy_objectives):
        ev = FunctionEvaluator(lambda c: {"error": 1.0}, toy_objectives)
        with pytest.raises(KeyError):
            ev.evaluate(toy_space.sample(1, rng=0))


class TestSamplers:
    def test_random_sampler_distinct(self, toy_space):
        configs = RandomSampler(toy_space).sample(10, rng=0)
        assert len(set(configs)) == 10

    def test_grid_sampler_levels(self, toy_space):
        sampler = GridSampler(toy_space, levels=2)
        grid = sampler.full_grid()
        assert len(grid) == 2 * 2 * 2
        assert len(sampler.sample(3, rng=0)) == 3

    def test_build_pool_enumerates_small_space(self, toy_space):
        pool = build_pool(toy_space, pool_size=None, rng=0)
        assert len(pool) == toy_space.cardinality

    def test_build_pool_includes_requested(self, toy_space):
        default = toy_space.default_configuration()
        pool = build_pool(toy_space, pool_size=5, rng=0, include=[default])
        assert default in pool


class TestSurrogate:
    def test_fit_predict_shapes(self, toy_space, toy_objectives):
        configs = toy_space.sample(24, rng=0)
        metrics = [toy_evaluate(c) for c in configs]
        surrogate = MultiObjectiveSurrogate(toy_space, toy_objectives, n_estimators=8, random_state=0)
        surrogate.fit(configs, metrics)
        pred = surrogate.predict(configs[:5])
        assert pred.shape == (5, 2)
        mean, std = surrogate.predict_with_std(configs[:5])
        assert std.shape == (5, 2) and np.all(std >= 0)

    def test_predictions_correlate_with_truth(self, toy_space, toy_objectives):
        configs = toy_space.enumerate()
        metrics = [toy_evaluate(c) for c in configs]
        surrogate = MultiObjectiveSurrogate(toy_space, toy_objectives, n_estimators=16, random_state=1)
        surrogate.fit(configs, metrics)
        pred = surrogate.predict(configs)
        truth = np.array([[m["error"], m["runtime"]] for m in metrics])
        for j in range(2):
            corr = np.corrcoef(pred[:, j], truth[:, j])[0, 1]
            assert corr > 0.9

    def test_predicted_pareto_subset_of_pool(self, toy_space, toy_objectives):
        configs = toy_space.sample(20, rng=2)
        metrics = [toy_evaluate(c) for c in configs]
        surrogate = MultiObjectiveSurrogate(toy_space, toy_objectives, n_estimators=8, random_state=2)
        surrogate.fit(configs, metrics)
        pool = toy_space.enumerate()
        front_configs, front_values = surrogate.predicted_pareto(pool)
        assert 0 < len(front_configs) <= len(pool)
        assert front_values.shape == (len(front_configs), 2)
        assert all(c in set(pool) for c in front_configs)

    def test_log_objective_transform(self, toy_space, toy_objectives):
        configs = toy_space.sample(16, rng=3)
        metrics = [toy_evaluate(c) for c in configs]
        surrogate = MultiObjectiveSurrogate(
            toy_space, toy_objectives, n_estimators=8, random_state=3, log_objectives=["runtime"]
        )
        surrogate.fit(configs, metrics)
        pred = surrogate.predict(configs)
        assert np.all(pred[:, 1] > 0)

    def test_refit_on_grown_history_equals_fresh_fit(self, toy_space, toy_objectives):
        # Each fit regrows both forests; the pool's one index is shared by
        # every forest of every fit, as in an active-learning loop.
        from repro.core.flat_forest import PoolIndex

        configs = toy_space.sample(24, rng=5)
        metrics = [toy_evaluate(c) for c in configs]
        X_pool = toy_space.encode(toy_space.enumerate())
        index = PoolIndex(X_pool)
        kw = dict(n_estimators=8, random_state=5)
        refitted = MultiObjectiveSurrogate(toy_space, toy_objectives, **kw)
        refitted.fit(configs[:12], metrics[:12]).predict_with_std_encoded(X_pool, pool_index=index)
        refitted.fit(configs, metrics)
        fresh = MultiObjectiveSurrogate(toy_space, toy_objectives, **kw).fit(configs, metrics)
        mean_r, std_r = refitted.predict_with_std_encoded(X_pool, pool_index=index)
        mean_f, std_f = fresh.predict_with_std_encoded(X_pool)
        np.testing.assert_array_equal(mean_r, mean_f)
        np.testing.assert_array_equal(std_r, std_f)

    def test_feature_importances_keys(self, toy_space, toy_objectives):
        configs = toy_space.sample(20, rng=4)
        surrogate = MultiObjectiveSurrogate(toy_space, toy_objectives, n_estimators=8, random_state=4)
        surrogate.fit(configs, [toy_evaluate(c) for c in configs])
        imps = surrogate.feature_importances()
        assert set(imps.keys()) == {"error", "runtime"}
        assert set(imps["error"].keys()) == set(toy_space.feature_names)


class TestHyperMapper:
    def test_runs_and_finds_pareto(self, toy_space, toy_objectives):
        hm = HyperMapper(
            toy_space,
            toy_objectives,
            toy_evaluate,
            n_random_samples=12,
            max_iterations=3,
            pool_size=None,
            seed=0,
        )
        result = hm.run()
        assert len(result.history) >= 12
        assert len(result.pareto) >= 1
        assert result.pareto_matrix().shape[1] == 2
        # Every Pareto point must be feasible (error <= 0.6).
        for record in result.pareto:
            assert record.metrics["error"] <= 0.6 + 1e-9

    def test_active_learning_adds_samples(self, toy_space, toy_objectives):
        hm = HyperMapper(toy_space, toy_objectives, toy_evaluate, n_random_samples=8, max_iterations=3, pool_size=None, seed=1)
        result = hm.run()
        sources = {r.source for r in result.history}
        assert "random" in sources
        assert any(r.n_new_samples > 0 for r in result.iterations)

    def test_deterministic_given_seed(self, toy_space, toy_objectives):
        kwargs = dict(n_random_samples=10, max_iterations=2, pool_size=None, seed=99)
        r1 = HyperMapper(toy_space, toy_objectives, toy_evaluate, **kwargs).run()
        r2 = HyperMapper(toy_space, toy_objectives, toy_evaluate, **kwargs).run()
        assert [rec.config for rec in r1.history] == [rec.config for rec in r2.history]

    def test_result_helpers(self, toy_space, toy_objectives):
        hm = HyperMapper(toy_space, toy_objectives, toy_evaluate, n_random_samples=10, max_iterations=2, pool_size=None, seed=2)
        result = hm.run()
        best_rt = result.best_by("runtime")
        assert best_rt is not None
        assert best_rt.metrics["runtime"] == min(r.metrics["runtime"] for r in result.pareto)
        assert result.hypervolume([1.0, 2.0]) >= 0.0
        summary = result.summary()
        assert summary["n_evaluations"] == len(result.history)

    def test_warm_start_from_history(self, toy_space, toy_objectives):
        hm1 = HyperMapper(toy_space, toy_objectives, toy_evaluate, n_random_samples=8, max_iterations=1, pool_size=None, seed=3)
        r1 = hm1.run()
        hm2 = HyperMapper(toy_space, toy_objectives, toy_evaluate, n_random_samples=8, max_iterations=1, pool_size=None, seed=3)
        r2 = hm2.run(initial_history=r1.history)
        assert len(r2.history) >= len(r1.history)

    def test_invalid_arguments(self, toy_space, toy_objectives):
        with pytest.raises(ValueError):
            HyperMapper(toy_space, toy_objectives, toy_evaluate, n_random_samples=0)
        with pytest.raises(ValueError):
            HyperMapper(toy_space, toy_objectives, toy_evaluate, max_iterations=-1)


class TestBaselines:
    def test_random_search(self, toy_space, toy_objectives):
        result = RandomSearch(toy_space, toy_objectives, toy_evaluate, seed=0).run(20)
        assert len(result.history) == 20
        assert len(result.pareto) >= 1

    def test_grid_search(self, toy_space, toy_objectives):
        result = GridSearch(toy_space, toy_objectives, toy_evaluate, levels=2, seed=0).run()
        assert len(result.history) == 8

    def test_local_search_improves_scalarized_objective(self, toy_space, toy_objectives):
        result = LocalSearch(toy_space, toy_objectives, toy_evaluate, n_restarts=2, seed=0).run(24)
        assert 2 <= len(result.history) <= 24

    def test_evolutionary_search_budget(self, toy_space, toy_objectives):
        result = EvolutionarySearch(toy_space, toy_objectives, toy_evaluate, population_size=6, seed=0).run(30)
        assert len(result.history) <= 30
        assert len(result.pareto) >= 1

    def test_bandit_search_budget(self, toy_space, toy_objectives):
        result = BanditSearch(toy_space, toy_objectives, toy_evaluate, seed=0).run(24, batch_size=6)
        assert len(result.history) <= 24
        assert len(result.pareto) >= 1

    def test_hypermapper_competitive_with_random(self, toy_space, toy_objectives):
        """At equal budget HyperMapper's front should not be worse than random's."""
        from repro.core.pareto import hypervolume_2d

        budget = 28
        hm = HyperMapper(toy_space, toy_objectives, toy_evaluate, n_random_samples=14, max_iterations=3, max_samples_per_iteration=5, pool_size=None, seed=5)
        hm_result = hm.run()
        rnd = RandomSearch(toy_space, toy_objectives, toy_evaluate, seed=5).run(budget)
        ref = np.array([2.0, 2.0])
        hv_hm = hypervolume_2d(toy_objectives.to_canonical(hm_result.pareto_matrix()), ref)
        hv_rnd = hypervolume_2d(toy_objectives.to_canonical(rnd.pareto_matrix()), ref)
        assert hv_hm >= hv_rnd * 0.95


class TestEncodedPoolCaching:
    def test_run_never_re_encodes_configs(self, toy_space, toy_objectives, monkeypatch):
        """Algorithm 1 predicts over a static pool built columnar-ly.

        A fully enumerable space takes the columnar enumeration path
        (``encode_enumerated``), and every training row is a gather from the
        cached pool matrix — so the per-config ``DesignSpace.encode`` is never
        called at all during a run.
        """
        from repro.core.space import DesignSpace

        calls = []
        original = DesignSpace.encode

        def counting_encode(self, configs):
            calls.append(len(configs))
            return original(self, configs)

        monkeypatch.setattr(DesignSpace, "encode", counting_encode)
        hm = HyperMapper(
            toy_space,
            toy_objectives,
            toy_evaluate,
            n_random_samples=10,
            max_iterations=3,
            pool_size=None,
            seed=5,
        )
        result = hm.run()
        assert len(result.iterations) >= 2  # the loop actually iterated
        assert calls == []

    def test_enumerable_pool_is_lazy_and_columnar(self, toy_space):
        from repro.core.sampling import build_encoded_pool
        from repro.core.space import EnumeratedConfigs

        pool = build_encoded_pool(toy_space, None)
        assert isinstance(pool.configs, EnumeratedConfigs)
        assert len(pool) == int(toy_space.cardinality)
        np.testing.assert_array_equal(pool.X, toy_space.encode(toy_space.enumerate()))
        c = pool.configs[9]
        assert c in pool
        X, binned = pool.training_rows(toy_space, [c], [pool.position(c)])
        np.testing.assert_array_equal(X, toy_space.encode([c]))
        np.testing.assert_array_equal(binned[0], pool.binned[9])
        assert pool.binned.dtype == np.uint8

    def test_include_outside_enumeration_falls_back(self, toy_space):
        from repro.core.space import Configuration
        from repro.core.sampling import build_encoded_pool

        outsider = Configuration(toy_space.parameter_names, [3, 0.1, False])
        pool = build_encoded_pool(toy_space, None, include=[outsider])
        assert outsider in pool
        assert len(pool) == int(toy_space.cardinality) + 1
        X, _ = pool.training_rows(toy_space, [outsider], [pool.position(outsider)])
        np.testing.assert_array_equal(X, toy_space.encode([outsider]))

    def test_encoded_pool_rows_match_fresh_encoding(self, toy_space):
        from repro.core.sampling import build_encoded_pool

        pool = build_encoded_pool(toy_space, None, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(pool.X, toy_space.encode(pool.configs))
        subset = [pool.configs[i] for i in (0, 5, 3, 5)]
        X, _ = pool.training_rows(toy_space, subset, [0, 5, 3, 5])
        np.testing.assert_array_equal(X, toy_space.encode(subset))

    def test_encoded_pool_handles_out_of_pool_configs(self, toy_space):
        from repro.core.sampling import EncodedPool

        members = toy_space.sample(6, rng=np.random.default_rng(1))
        pool = EncodedPool(configs=members, X=toy_space.encode(members))
        outsider = next(
            c for c in toy_space.enumerate() if c not in set(members)
        )
        configs = [members[0], outsider, outsider]
        rows, binned = pool.training_rows(toy_space, configs, [0, -1, -1])
        np.testing.assert_array_equal(rows, toy_space.encode(configs))
        np.testing.assert_array_equal(binned, pool.bin_mapper.transform(rows))
        assert outsider not in pool and members[0] in pool

    def test_encoded_prediction_paths_agree(self, toy_space, toy_objectives):
        configs = toy_space.sample(24, rng=np.random.default_rng(2))
        metrics = [toy_evaluate(c) for c in configs]
        surrogate = MultiObjectiveSurrogate(toy_space, toy_objectives, n_estimators=8, random_state=0)
        surrogate.fit(configs, metrics)
        pool = toy_space.enumerate()
        X_pool = toy_space.encode(pool)
        mean_c, std_c = surrogate.predict_with_std(pool)
        mean_e, std_e = surrogate.predict_with_std_encoded(X_pool)
        np.testing.assert_array_equal(mean_c, mean_e)
        np.testing.assert_array_equal(std_c, std_e)
        cfgs, vals = surrogate.predicted_pareto(pool)
        idx, vals_e = surrogate.predicted_pareto_encoded(X_pool)
        assert cfgs == [pool[int(i)] for i in idx]
        np.testing.assert_array_equal(vals, vals_e)
