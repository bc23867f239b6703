"""Repo-wide determinism property harness (Hypothesis).

PR 1–4 each proved equivalences for specific stacks (flat forest vs
per-tree, engine vs seed loop, async vs serial executor, resume vs
uninterrupted).  This module turns those ad-hoc tests into one systematic
sweep over *randomized scenarios*: small spaces drawn from all five
parameter types, all 6 search algorithms × 3 acquisitions, asserting

* **run-twice bit-identity** — the same scenario produces byte-identical
  histories on repeated runs,
* **worker-count and backend invariance** — ``n_workers ∈ {1, 2, 4}``
  histories are equal across the thread and socket executor backends
  (submission-order gathering is what makes async == serial),
* **kill-at-random-iteration / resume equality** — a run killed at any
  iteration boundary and resumed equals the uninterrupted run.

Run under the fixed ``determinism`` Hypothesis profile by default
(derandomized, reproduction blob printed on failure); set
``HYPOTHESIS_PROFILE`` to explore with fresh randomness.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baselines import BanditSearch, EvolutionarySearch, LocalSearch
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.registry import EvaluatorBinding, register_evaluator
from repro.core.scenario import Scenario
from repro.core.space import DesignSpace
from repro.core.study import Study

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
# Scenario generation
# ---------------------------------------------------------------------------


def _value(v) -> float:
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return float(v)
    return float(sum(ord(c) for c in str(v)) % 11) / 11.0


def evaluate(config):
    """A deterministic, pure toy black box over arbitrary configurations."""
    values = [_value(config[k]) for k in sorted(config.keys())]
    err = sum((i + 1) * 0.13 * v for i, v in enumerate(values))
    cost = 0.7 + sum((len(values) - i) * 0.29 * v * v for i, v in enumerate(values))
    return {"err": err, "cost": 1.0 / (1.0 + cost) + 0.2 * err * err}


@register_evaluator("determinism-toy")
def make_determinism_evaluator(spec, **_):
    """:func:`evaluate` as a registered plugin, so socket workers can build it."""
    return EvaluatorBinding(fn=evaluate, info={"type": "determinism-toy"})


@st.composite
def extra_parameters(draw):
    """0–2 additional parameters covering the remaining parameter types."""
    specs = []
    n = draw(st.integers(0, 2))
    for i in range(n):
        kind = draw(st.sampled_from(["integer", "real", "boolean", "ordinal"]))
        name = f"x{i}"
        if kind == "integer":
            lower = draw(st.integers(0, 3))
            specs.append({"type": "integer", "name": name, "lower": lower, "upper": lower + draw(st.integers(1, 3))})
        elif kind == "real":
            specs.append({"type": "real", "name": name, "lower": 0.25, "upper": 4.0,
                          "log_scale": draw(st.booleans()), "grid_points": draw(st.integers(3, 5))})
        elif kind == "boolean":
            specs.append({"type": "boolean", "name": name, "default": draw(st.booleans())})
        else:
            k = draw(st.integers(2, 4))
            specs.append({"type": "ordinal", "name": name, "values": [1, 2, 4, 8][:k]})
    return specs


@st.composite
def space_sections(draw):
    """A small design space: two fixed anchors + randomized extras.

    The anchors keep the cardinality ≥ 12 so population/batch-based
    baselines always have enough distinct configurations to chew on.
    """
    params = [
        {"type": "ordinal", "name": "a", "values": [1, 2, 4, 8], "default": 1},
        {"type": "categorical", "name": "mode", "choices": ["x", "y", "z"], "default": "x"},
    ]
    params.extend(draw(extra_parameters()))
    return {"parameters": params}


#: Every engine variant: the five baselines plus hypermapper under each of
#: the three built-in acquisitions — the "6 algorithms × 3 acquisitions"
#: coverage the ROADMAP's equivalence story is built on.
SEARCH_VARIANTS = [
    {"algorithm": "random", "budget": 10},
    {"algorithm": "grid", "budget": 10, "levels": 2},
    {"algorithm": "local", "budget": 12, "n_restarts": 2},
    {"algorithm": "evolutionary", "budget": 12, "population_size": 6},
    {"algorithm": "bandit", "budget": 8, "batch_size": 4},
] + [
    {
        "algorithm": "hypermapper",
        "n_random_samples": 6,
        "max_iterations": 2,
        "max_samples_per_iteration": 4,
        "pool_size": None,
        "acquisition": acquisition,
    }
    for acquisition in ("predicted_pareto", "uncertainty_weighted", "epsilon_greedy")
]


def scenario_dict(space, search, seed, limit=None):
    objectives = [{"name": "err"}, {"name": "cost"}]
    if limit is not None:
        objectives[0]["limit"] = limit
    return {
        "schema_version": 1,
        "name": "determinism-prop",
        "space": space,
        "objectives": objectives,
        "evaluator": {"type": "function"},
        "search": search,
        "seed": seed,
    }


def hist_dump(result):
    history = getattr(result, "history", result)
    return [(dict(r.config), r.metrics, r.source, r.iteration) for r in history.records]


def run_history(scenario, n_workers=1, backend="thread"):
    if n_workers != 1 or backend != "thread":
        executor = {"n_workers": n_workers, "backend": backend}
        if backend == "socket":
            executor["transport"] = {"heartbeat_s": 0.5}
            # Socket workers build the black box from the scenario.
            scenario = dict(scenario, evaluator={"type": "determinism-toy"})
        scenario = dict(scenario, executor=executor)
    return hist_dump(Study(scenario, evaluate=evaluate).run())


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


class TestRunTwiceAndWorkerInvariance:
    @given(
        space=space_sections(),
        search=st.sampled_from(SEARCH_VARIANTS),
        seed=st.integers(0, 10_000),
        backend=st.sampled_from(["thread", "socket"]),
    )
    def test_histories_identical_across_reruns_and_worker_counts(
        self, space, search, seed, backend
    ):
        scenario = scenario_dict(space, search, seed)
        reference = run_history(scenario)
        assert run_history(scenario) == reference  # run twice
        for n_workers in (2, 4):
            assert run_history(
                scenario, n_workers=n_workers, backend=backend
            ) == reference, (backend, n_workers)

    @pytest.mark.parametrize("search", SEARCH_VARIANTS, ids=lambda s: s["algorithm"] + "-" + str(s.get("acquisition", "")))
    def test_every_variant_is_worker_invariant_on_the_anchor_space(self, search):
        """Deterministic floor under the property: all 8 variants always run."""
        space = {"parameters": [
            {"type": "ordinal", "name": "a", "values": [1, 2, 4, 8], "default": 1},
            {"type": "categorical", "name": "mode", "choices": ["x", "y", "z"], "default": "x"},
            {"type": "boolean", "name": "fast", "default": False},
        ]}
        scenario = scenario_dict(space, search, seed=17, limit=1.5)
        reference = run_history(scenario)
        assert len(reference) > 0
        assert run_history(scenario, n_workers=2) == reference
        assert run_history(scenario, n_workers=4) == reference


class TestKillAndResume:
    @given(
        space=space_sections(),
        acquisition=st.sampled_from(["predicted_pareto", "uncertainty_weighted", "epsilon_greedy"]),
        seed=st.integers(0, 10_000),
        kill_at=st.integers(0, 2),
    )
    def test_hypermapper_killed_at_any_iteration_resumes_identically(
        self, space, acquisition, seed, kill_at
    ):
        """Kill at a drawn iteration boundary (0 = right after bootstrap)."""
        search = {
            "algorithm": "hypermapper",
            "n_random_samples": 6,
            "max_iterations": 3,
            "max_samples_per_iteration": 4,
            "pool_size": None,
            "acquisition": acquisition,
        }
        full_scenario = scenario_dict(space, search, seed)
        full = run_history(full_scenario)
        killed_scenario = scenario_dict(space, dict(search, max_iterations=kill_at), seed)
        with tempfile.TemporaryDirectory() as td:
            run_dir = Path(td) / "run"
            Study(killed_scenario, evaluate=evaluate).run(run_dir=run_dir)
            # Swap the full-budget scenario in and continue from the checkpoint.
            Scenario.from_dict(full_scenario).save(run_dir / "scenario.json")
            resumed = Study.resume(run_dir, evaluate=evaluate)
            assert hist_dump(resumed) == full
            # The persisted stream reflects the completed (resumed) run.
            lines = [
                json.loads(l) for l in (run_dir / "history.jsonl").read_text().splitlines()
            ]
            assert [
                (d["config"], d["metrics"], d["source"], d["iteration"]) for d in lines
            ] == [(c, m, s, i) for c, m, s, i in full]

    @given(
        space=space_sections(),
        algorithm=st.sampled_from(["local", "evolutionary", "bandit"]),
        seed=st.integers(0, 10_000),
        kill_at=st.integers(1, 2),
    )
    def test_baseline_killed_at_any_iteration_resumes_identically(
        self, space, algorithm, seed, kill_at
    ):
        """The stateful baselines resume from any iteration boundary too."""
        objectives = ObjectiveSet([Objective("err"), Objective("cost")])
        design = DesignSpace.from_specs(space["parameters"], name="prop")

        def make(checkpoint_path=None):
            if algorithm == "local":
                return LocalSearch(
                    design, objectives, evaluate, n_restarts=2, seed=seed,
                    checkpoint_path=checkpoint_path,
                ), dict(budget=14)
            if algorithm == "evolutionary":
                return EvolutionarySearch(
                    design, objectives, evaluate, population_size=6, seed=seed,
                    checkpoint_path=checkpoint_path,
                ), dict(budget=16)
            return BanditSearch(
                design, objectives, evaluate, seed=seed, checkpoint_path=checkpoint_path
            ), dict(budget=16, batch_size=4)

        search, kwargs = make()
        full = hist_dump(search.run(**kwargs))
        with tempfile.TemporaryDirectory() as td:
            ck = os.path.join(td, "ck.json")
            killed, kwargs = make(checkpoint_path=ck)
            killed.run(**dict(kwargs, max_iterations=kill_at))
            resumed, kwargs = make()
            assert hist_dump(resumed.run(**dict(kwargs, resume_from=ck))) == full
