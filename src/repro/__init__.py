"""repro — reproduction of "Algorithmic Performance-Accuracy Trade-off in 3D
Vision Applications Using HyperMapper" (Nardi et al., iWAPT 2017).

Subpackages
-----------
``repro.core``
    HyperMapper itself: design spaces, random-forest surrogates, Pareto
    utilities, the active-learning optimizer and baseline search strategies.
``repro.slam``
    The dense SLAM substrate: KinectFusion and ElasticFusion pipelines built
    from scratch (geometry, scenes, ICP, TSDF, surfels, metrics).
``repro.slambench``
    The SLAMBench-style harness: design spaces/defaults of both applications,
    the per-kernel workload model and the configuration runner.
``repro.devices``
    Analytical models of the evaluation hardware (ODROID-XU3, ASUS T200TA,
    GTX 780 Ti) and of the crowd-sourced mobile fleet.
``repro.crowd``
    The crowd-sourcing experiment substrate (app runs, results database,
    speedup/correlation analysis).
``repro.experiments``
    One harness per paper figure/table, runnable at several scales.

Every name is imported from the module that defines it (``from
repro.core.study import Study``); the package ``__init__`` modules import
nothing, so a program loads only the modules it uses.

Quickstart
----------
The public API is declarative: a scenario (dict/JSON/TOML) names the
workload, device, search and budget, and the :class:`~repro.core.study.Study`
front door runs it (see ``docs/scenarios.md``; the same files run via
``python -m repro run``):

>>> from repro.core.study import Study
>>> scenario = {
...     "schema_version": 1,
...     "evaluator": {"type": "slambench", "workload": "kfusion",
...                   "device": "odroid-xu3", "n_frames": 20,
...                   "width": 48, "height": 36},
...     "search": {"algorithm": "hypermapper", "n_random_samples": 20,
...                "max_iterations": 2, "pool_size": 500},
...     "seed": 0,
... }
>>> result = Study(scenario).run()  # doctest: +SKIP

The imperative optimizer API works too:

>>> from repro.core.optimizer import HyperMapper
>>> from repro.slambench.workloads import get_workload
>>> from repro.devices.catalog import ODROID_XU3
>>> workload = get_workload("kfusion")
>>> runner = workload.make_runner(n_frames=20, width=48, height=36)
>>> hm = HyperMapper(workload.space(), workload.objectives(),
...                  runner.evaluation_function(ODROID_XU3),
...                  n_random_samples=20, max_iterations=2, pool_size=500, seed=0)
>>> result = hm.run()  # doctest: +SKIP
"""

__version__ = "1.0.0"
