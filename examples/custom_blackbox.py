#!/usr/bin/env python3
"""Using the scenario API on your own multi-objective black box.

The engine is application-agnostic and the scenario API is extensible:
register your evaluator under a name and plain-dict scenarios can select it
like any built-in plugin.  This example tunes a synthetic "kernel
autotuning" problem (tile sizes, unrolling, vectorization flags) with two
conflicting objectives — runtime and energy — and compares three acquisition
strategies plus plain random search, all expressed as scenarios that differ
only in their ``search`` section and all sharing one ``EvaluationExecutor``
(so memoized evaluations are reused across strategies).

Run with:  python examples/custom_blackbox.py
"""

import numpy as np

from repro.core.executor import EvaluationExecutor
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.parameters import BooleanParameter, OrdinalParameter
from repro.core.pareto import hypervolume_2d
from repro.core.registry import EvaluatorBinding, register_evaluator
from repro.core.space import DesignSpace
from repro.core.study import Study


def make_problem():
    space = DesignSpace(
        [
            OrdinalParameter("tile_i", [8, 16, 32, 64, 128], default=32),
            OrdinalParameter("tile_j", [8, 16, 32, 64, 128], default=32),
            OrdinalParameter("unroll", [1, 2, 4, 8], default=1),
            BooleanParameter("vectorize", default=False),
            BooleanParameter("prefetch", default=False),
        ],
        name="kernel-autotuning",
    )
    objectives = ObjectiveSet([Objective("runtime_ms"), Objective("energy_mj")])

    def evaluate(config):
        ti, tj = float(config["tile_i"]), float(config["tile_j"])
        unroll = float(config["unroll"])
        vec = bool(config["vectorize"])
        pre = bool(config["prefetch"])
        # A synthetic, non-convex response: cache-friendly tiles around 32x64,
        # vectorization helps runtime but costs energy, unrolling has an
        # optimum, prefetching only helps large tiles.
        cache_penalty = 0.4 * (np.log2(ti * tj / 2048.0)) ** 2
        unroll_term = 0.3 * (np.log2(unroll) - 1.5) ** 2
        runtime = 2.0 + cache_penalty + unroll_term - (0.8 if vec else 0.0) - (0.3 if pre and ti * tj >= 4096 else 0.0)
        energy = 1.5 + 0.5 * cache_penalty + (0.6 if vec else 0.0) + (0.2 if pre else 0.0) + 0.1 * unroll
        return {"runtime_ms": max(runtime, 0.2), "energy_mj": max(energy, 0.2)}

    return space, objectives, evaluate


def main() -> None:
    space, objectives, evaluate = make_problem()
    budget = 120
    reference = [8.0, 6.0]

    # Third-party extension in three lines: the registered name becomes a
    # valid `evaluator.type` for every scenario in this process — the same
    # mechanism a deployment would use to plug in real hardware harnesses.
    @register_evaluator("demo_kernel_autotuner")
    def make_demo_evaluator(spec, **_):
        return EvaluatorBinding(fn=evaluate, space=space, objectives=objectives)

    make_demo_evaluator.provides_problem = True

    def scenario(search):
        return {
            "schema_version": 1,
            "name": "kernel-autotuning",
            "evaluator": {"type": "demo_kernel_autotuner"},
            "search": search,
            "seed": 0,
        }

    hm_search = {
        "algorithm": "hypermapper",
        "n_random_samples": budget // 2,
        "max_iterations": 4,
        "max_samples_per_iteration": budget // 8,
        "pool_size": None,  # the space is small enough to enumerate
    }
    searches = {
        "predicted_pareto": dict(hm_search, acquisition="predicted_pareto"),
        "uncertainty_lcb": dict(hm_search, acquisition={"name": "uncertainty_weighted", "beta": 1.0}),
        "epsilon_greedy": dict(hm_search, acquisition={"name": "epsilon_greedy", "epsilon": 0.2}),
        "random_search": {"algorithm": "random", "budget": budget},
    }

    # One shared executor: every strategy reuses its memoized evaluations, so
    # the comparison costs far fewer black-box runs than 4x the budget.
    with EvaluationExecutor(evaluate, objectives, n_workers=2) as executor:
        results = {
            name: Study(scenario(search), executor=executor).run()
            for name, search in searches.items()
        }
        n_black_box = executor.n_evaluations

    print(f"distinct black-box evaluations across all four searches: {n_black_box}")
    print(f"{'strategy':<18} {'evals':>5} {'Pareto':>6} {'hypervolume':>12}")
    best = None
    for name, result in results.items():
        hv = hypervolume_2d(objectives.to_canonical(result.pareto_matrix()), reference)
        print(f"{name:<18} {len(result.history):>5} {len(result.pareto):>6} {hv:>12.3f}")
        if best is None or hv > best[1]:
            best = (name, hv)

    print(f"\nbest front ({best[0]}) — runtime_ms, energy_mj:")
    for record in results[best[0]].pareto:
        m = record.metrics
        cfg = record.config
        print(
            f"  {m['runtime_ms']:.2f} ms, {m['energy_mj']:.2f} mJ   "
            f"tile {cfg['tile_i']}x{cfg['tile_j']}, unroll {cfg['unroll']}, "
            f"vectorize={cfg['vectorize']}, prefetch={cfg['prefetch']}"
        )


if __name__ == "__main__":
    main()
