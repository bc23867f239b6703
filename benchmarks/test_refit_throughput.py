"""Throughput benchmark for the iteration-speed layer: refits, not fits.

Every active-learning iteration regrows both surrogate forests from scratch.
This benchmark guards the grower that makes that refit fast:
``grow_forest_hist`` grows all 32 trees of a forest level-synchronously in
one histogram pass, measured against growing the same trees one at a time
with the per-tree hist oracle of ``tests/oracles.py`` (same arithmetic,
same seeds and bootstrap draws, bit-identical forests) on the two-32-tree
acceptance config.
Results are recorded to ``refit_throughput.json`` in the ``results_dir``
fixture (``benchmarks/results/`` under ``REPRO_BENCH_WRITE=1``); the
committed copy in ``benchmarks/results/`` is the regression baseline (each
measured speedup must stay within 30% of it, a machine-relative ratio that
is stable across runners).
"""

import json
import time
from pathlib import Path

import numpy as np

from oracles import per_tree_hist_forest
from repro.core.flat_forest import FlatForest
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.parameters import BooleanParameter, CategoricalParameter, OrdinalParameter
from repro.core.sampling import build_encoded_pool
from repro.core.space import DesignSpace
from repro.core.surrogate import MultiObjectiveSurrogate
from repro.utils.rng import derive_seed
from repro.utils.serialization import dump_json
from repro.utils.tables import format_table

N_TREES = 32
#: Acceptance guardrail: batched forest growth vs per-tree hist.
MIN_FOREST_SPEEDUP = 2.0
#: A measured speedup may not regress below this fraction of the committed
#: baseline's (ratios are machine-relative, so this is runner-stable).
REGRESSION_FLOOR = 0.7


def _bench_space():
    """A KFusion-sized discrete design space (~393k configurations)."""
    params = [OrdinalParameter(f"p{i}", [1, 2, 4, 8]) for i in range(8)]
    params.append(BooleanParameter("flag"))
    params.append(CategoricalParameter("mode", ["a", "b", "c"]))
    return DesignSpace(params, name="refit-throughput-bench")


def _timed(fn, repeats=3):
    """Best-of-N wall time (first call also serves as warm-up)."""
    fn()
    return min(_one_timing(fn) for _ in range(repeats))


def _one_timing(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _synthetic_metrics(X_rows, rng):
    """Learnable bi-objective targets over encoded rows."""
    w1 = np.linspace(0.2, 1.0, X_rows.shape[1])
    w2 = np.linspace(1.0, 0.1, X_rows.shape[1])
    err = X_rows @ w1 + 0.5 * np.sin(X_rows[:, 0]) + 0.05 * rng.normal(size=X_rows.shape[0])
    run = X_rows @ w2 + 0.3 * (X_rows[:, 1] > 2) + 0.05 * rng.normal(size=X_rows.shape[0])
    return [{"error": float(e), "runtime": float(r)} for e, r in zip(err, run)]


def _training_slice(space, pool, n, rng):
    idx = rng.choice(len(pool), size=n, replace=False)
    configs = [pool.configs[int(i)] for i in idx]
    return pool.training_rows(space, configs, idx)


def _measure_forest_level(space, objectives, n_train, pool_size, seed):
    """Batched ``grow_forest_hist`` vs the per-tree hist oracle, same refit."""
    rng = np.random.default_rng(seed)
    pool = build_encoded_pool(space, pool_size, rng=rng)
    X_train, prebinned = _training_slice(space, pool, n_train, rng)
    metrics = _synthetic_metrics(X_train, rng)

    batched = MultiObjectiveSurrogate(space, objectives, n_estimators=N_TREES, random_state=seed)
    per_tree = {}

    def fit_per_tree():
        # Each objective's forest with the surrogate's hyper-parameters and
        # seed, grown one tree at a time on the same binned rows.
        for obj in objectives:
            nodes = per_tree_hist_forest(
                prebinned,
                pool.bin_mapper.bin_thresholds_,
                np.array([m[obj.name] for m in metrics]),
                n_estimators=batched.n_estimators,
                random_state=derive_seed(seed, obj.name),
                bootstrap=batched.bootstrap,
                max_features=batched.max_features,
                max_depth=batched.max_depth,
                min_samples_leaf=batched.min_samples_leaf,
            )
            per_tree[obj.name] = FlatForest.from_node_arrays(nodes, X_train.shape[1])

    t_batched = _timed(
        lambda: batched.fit_encoded(
            X_train, metrics, bin_mapper=pool.bin_mapper, prebinned=prebinned
        )
    )
    t_per_tree = _timed(fit_per_tree)
    # The two paths are the same arithmetic in a different loop order; the
    # speedup must never come at the cost of a single differing prediction.
    probe = pool.X[: min(2000, len(pool))]
    np.testing.assert_array_equal(
        batched.predict_encoded(probe),
        np.column_stack([per_tree[obj.name].predict(probe) for obj in objectives]),
    )
    return {
        "n_train": n_train,
        "pool_size": pool_size,
        "n_trees_per_forest": N_TREES,
        "n_forests": len(objectives),
        "per_tree_fit_seconds": t_per_tree,
        "forest_level_fit_seconds": t_batched,
        "speedup": t_per_tree / t_batched,
    }


def _check_against_baseline(baseline, results):
    """Every case present in the committed baseline must keep >=70% of its
    recorded speedup (CI regression gate for the forest-level grower)."""
    if not baseline:
        return
    recorded = {r["case"]: r for r in baseline.get("forest_level", [])}
    for r in results:
        base = recorded.get(r["case"])
        if base is None:
            continue
        floor = REGRESSION_FLOOR * float(base["speedup"])
        assert r["speedup"] >= floor, (
            f"forest_level/{r['case']}: speedup {r['speedup']:.2f}x regressed below "
            f"{floor:.2f}x (70% of the committed {base['speedup']:.2f}x)"
        )


def test_refit_throughput(benchmark, scale, results_dir):
    """Record refit throughput and gate it against the committed baseline."""
    from repro.experiments.common import SMOKE

    space = _bench_space()
    objectives = ObjectiveSet([Objective("error"), Objective("runtime")])
    smoke = scale is SMOKE

    # The committed baseline, wherever this run writes its own results.
    baseline_path = Path(__file__).parent / "results" / "refit_throughput.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else None

    forest_cases = [("smoke", max(scale.n_random_samples, 60), 2_000)]
    if not smoke:
        # Acceptance config: the two-32-tree refit on 300 samples (the
        # fit-throughput acceptance case).
        forest_cases.append(("acceptance", 300, 20_000))

    forest_results = [
        dict(case=name, **_measure_forest_level(space, objectives, n_train, pool_size, seed=29))
        for name, n_train, pool_size in forest_cases
    ]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    print()
    print(
        format_table(
            [
                [
                    r["case"],
                    r["n_train"],
                    f"{r['per_tree_fit_seconds'] * 1e3:.0f}",
                    f"{r['forest_level_fit_seconds'] * 1e3:.0f}",
                    f"{r['speedup']:.1f}x",
                ]
                for r in forest_results
            ],
            headers=["case", "train", "per-tree ms", "forest-level ms", "speedup"],
            title="Forest-level single-pass fitting (2 forests x 32 trees)",
        )
    )
    dump_json({"forest_level": forest_results}, results_dir / "refit_throughput.json")

    _check_against_baseline(baseline, forest_results)
    # Absolute wall-clock guardrails only above smoke scale (shared CI
    # runners are too noisy for them; the ratio gate above still applies).
    if not smoke:
        assert forest_results[-1]["speedup"] >= MIN_FOREST_SPEEDUP
