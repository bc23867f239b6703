"""The benchmark's workloads: one scenario dict each, generated from a seed.

Every workload is a whole study run through the public API.  The SLAM
scenarios are scaled-down copies of ``examples/scenarios/quickstart.json``
and ``elasticfusion.json``: one study takes a few seconds on a 2-core
machine, so a run can repeat it.  They live here so that editing a shipped
example never changes what the benchmark measures.

The seed picks the *world* a study explores: the synthetic RGB-D sequence
(``evaluator.dataset_seed``) for the SLAM workloads, the response surface of
the synthetic black box for ``search-heavy``.  The search's own ``seed``
stays fixed, so every seed evaluates the same configurations and a study
does the same amount of work whatever the seed.  Varying the search seed
instead changes which configurations get evaluated, and with them the
study's wall time by ±15%, which would swamp any regression bound.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "slam" or "synthetic"
    socket_workers: int  # 0 = the study's own serial executor
    reference: Tuple[float, float]  # hypervolume reference point (natural units)
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kfusion-serial",
            "slam",
            0,
            (0.05, 0.2),
            "the paper's KFusion DSE on the real slambench evaluator, one process: "
            "the SLAM kernels are almost all of the wall time",
        ),
        Workload(
            "kfusion-socket2",
            "slam",
            2,
            (0.05, 0.2),
            "the same study drained by 2 eval-worker processes over the socket "
            "transport: task pickling and the broker are on the critical path",
        ),
        Workload(
            "elasticfusion-serial",
            "slam",
            0,
            (0.05, 0.1),
            "ElasticFusion uses the slam layer through surfel fusion and "
            "photometric tracking: no SDF, ICP-to-implicit or bilateral calls",
        ),
        Workload(
            "search-heavy",
            "synthetic",
            0,
            (2.0, 12.0),
            "a microsecond synthetic black box over the KFusion space: surrogate "
            "fit/predict, pool encoding and checkpoints do the work",
        ),
    )
}


#: The SLAM workloads' active-learning iteration fits and queries the
#: surrogate like any other, but spends its batch on random pool picks.  Those
#: are the same configurations at every seed, while model-picked ones differ
#: with the data and move a study's SLAM work by ±6%.
_EXPLORE = {"name": "epsilon_greedy", "epsilon": 1.0}


def _kfusion(seed: int, smoke: bool) -> Dict[str, Any]:
    scale = (
        {"n_frames": 8, "width": 32, "height": 24}
        if smoke
        else {"n_frames": 15, "width": 64, "height": 48}
    )
    search = (
        {"n_random_samples": 8, "max_iterations": 1, "max_samples_per_iteration": 2, "pool_size": 200}
        if smoke
        else {"n_random_samples": 60, "max_iterations": 1, "max_samples_per_iteration": 10, "pool_size": 3000}
    )
    return {
        "schema_version": 1,
        "name": "e2e-kfusion",
        "evaluator": {
            "type": "slambench",
            "workload": "kfusion",
            "device": "odroid-xu3",
            **scale,
            "dataset_seed": 1 + seed,
        },
        "search": {"algorithm": "hypermapper", "acquisition": _EXPLORE, **search},
        "executor": {"n_workers": 1},
        "checkpoint": {"every": 1},
        "seed": 42,
    }


def _elasticfusion(seed: int, smoke: bool) -> Dict[str, Any]:
    scale = (
        {"n_frames": 8, "width": 32, "height": 24}
        if smoke
        else {"n_frames": 10, "width": 56, "height": 42}
    )
    search = (
        {"n_random_samples": 8, "max_iterations": 1, "max_samples_per_iteration": 2, "pool_size": 200}
        if smoke
        else {"n_random_samples": 30, "max_iterations": 1, "max_samples_per_iteration": 6, "pool_size": 2000}
    )
    return {
        "schema_version": 1,
        "name": "e2e-elasticfusion",
        "evaluator": {
            "type": "slambench",
            "workload": "elasticfusion",
            "device": "gtx-780ti",
            **scale,
            "dataset_seed": 2 + seed,
            "pipeline_options": {"fusion_stride": 2},
        },
        "search": {"algorithm": "hypermapper", "acquisition": _EXPLORE, **search},
        "executor": {"n_workers": 1},
        "checkpoint": {"every": 1},
        "seed": 7,
    }


def _search_heavy(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.slambench.parameters import kfusion_design_space

    search = (
        {"n_random_samples": 8, "max_iterations": 1, "max_samples_per_iteration": 2, "pool_size": 500}
        if smoke
        else {"n_random_samples": 200, "max_iterations": 16, "max_samples_per_iteration": 10, "pool_size": 50000}
    )
    return {
        "schema_version": 1,
        "name": "e2e-search-heavy",
        "space": kfusion_design_space().to_dict(),
        "objectives": [
            {"name": "error", "minimize": True, "unit": ""},
            {"name": "cost", "minimize": True, "unit": ""},
        ],
        # The host binds the callable (Study(..., evaluate=...)); the extra
        # keys record which one, so the scenario alone identifies the study.
        "evaluator": {"type": "function", "black_box": "e2e-synthetic", "world_seed": seed},
        "search": {
            "algorithm": "hypermapper",
            "acquisition": {"name": "epsilon_greedy", "epsilon": 0.2},
            **search,
        },
        "executor": {"n_workers": 1},
        "checkpoint": {"every": 1},
        "seed": 2017,
    }


def build_scenario(workload: str, seed: int, smoke: bool = False) -> Dict[str, Any]:
    """The exact scenario dict ``workload`` runs at ``seed``."""
    w = WORKLOADS[workload]
    if w.kind == "synthetic":
        return _search_heavy(seed, smoke)
    scenario = _elasticfusion(seed, smoke) if workload.startswith("elasticfusion") else _kfusion(seed, smoke)
    if w.socket_workers:
        scenario["executor"] = {
            "backend": "socket",
            "n_workers": w.socket_workers,
            "transport": {"workers": "external", "port": 0},
        }
    return scenario


def serial_twin(scenario: Mapping[str, Any]) -> Dict[str, Any]:
    """The same study on the serial executor (the socket workload's reference)."""
    twin = copy.deepcopy(dict(scenario))
    twin["executor"] = {"n_workers": 1}
    return twin


class SyntheticBlackBox:
    """Deterministic two-objective response surface over a design space.

    ``error`` is a weighted distance from a seed-chosen optimum and ``cost``
    grows with every parameter, so the front trades one for the other.  One
    call costs microseconds: a study built on it spends its time in the
    search layers, not in evaluation.
    """

    def __init__(self, space, world_seed: int) -> None:
        rng = np.random.default_rng([2017, int(world_seed)])
        self._positions = []
        for p in space.parameters:
            values = p.values()
            span = max(len(values) - 1, 1)
            self._positions.append((p.name, {v: i / span for i, v in enumerate(values)}))
        d = len(self._positions)
        self._optimum = rng.uniform(0.4, 1.0, d)
        self._error_w = rng.uniform(0.2, 1.0, d)
        self._cost_w = rng.uniform(0.2, 1.0, d)
        upper = np.triu(rng.uniform(0.0, 0.3, (d, d)), 1)
        self._coupling = upper + upper.T

    def __call__(self, config: Mapping[str, Any]) -> Dict[str, float]:
        u = np.array([pos[config[name]] for name, pos in self._positions])
        error = 0.02 + float(self._error_w @ (u - self._optimum) ** 2)
        cost = 0.1 + float(self._cost_w @ u) + 0.5 * float(u @ self._coupling @ u)
        return {"error": error, "cost": cost}
