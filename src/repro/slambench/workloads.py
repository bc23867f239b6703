"""Named SLAM workloads and the declarative ``slambench`` evaluator plugin.

A *workload* bundles everything a scenario needs to study one application by
name: the design space, the objectives, the expert default configuration and
a runner factory.  The two paper applications are registered as
``"kfusion"`` and ``"elasticfusion"``; third-party applications register
their own with :func:`~repro.core.registry.register_workload`.

The ``slambench`` evaluator type turns a scenario section like ::

    {"type": "slambench", "workload": "kfusion", "device": "odroid-xu3",
     "n_frames": 30, "width": 64, "height": 48, "dataset_seed": 1}

into a bound black box (accuracy from the pipeline simulation, runtime from
the named device's cost model), supplying the workload's space/objectives to
scenarios that do not declare their own.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.core.objectives import ObjectiveSet
from repro.core.registry import (
    DEVICE_REGISTRY,
    WORKLOAD_REGISTRY,
    EvaluatorBinding,
    UnknownPluginError,
    register_evaluator,
    register_workload,
)
from repro.core.space import Configuration, DesignSpace
from repro.slambench.parameters import (
    ACCURACY_LIMIT_M,
    elasticfusion_default_config,
    elasticfusion_design_space,
    elasticfusion_objectives,
    kfusion_default_config,
    kfusion_design_space,
    kfusion_objectives,
)
from repro.slambench.runner import SlamBenchRunner


class SlamWorkload:
    """A named SLAM application: space + objectives + defaults + runner."""

    #: Registered name; set by subclasses.
    name: str = ""
    #: The pipeline key understood by :class:`SlamBenchRunner`.
    pipeline: str = ""

    def space(self) -> DesignSpace:
        """The application's algorithmic design space."""
        raise NotImplementedError

    def objectives(self, accuracy_limit_m: float = ACCURACY_LIMIT_M) -> ObjectiveSet:
        """The application's objectives (accuracy limit adjustable)."""
        raise NotImplementedError

    def default_config(self) -> Configuration:
        """The expert/shipped default configuration."""
        raise NotImplementedError

    def make_runner(
        self,
        n_frames: int = 60,
        width: int = 80,
        height: int = 60,
        dataset_seed: int = 0,
        pipeline_seed: int = 0,
        pipeline_options: Optional[Mapping[str, object]] = None,
    ) -> SlamBenchRunner:
        """A :class:`SlamBenchRunner` for this workload at the given scale."""
        kwargs: Dict[str, object] = {}
        options = dict(self.default_pipeline_options())
        options.update(pipeline_options or {})
        if self.pipeline == "elasticfusion":
            if options:
                kwargs["elasticfusion_kwargs"] = options
        elif pipeline_options:
            # Refuse rather than silently run with defaults: this pipeline
            # has no option plumbing, so the user's settings would be lost.
            raise ValueError(
                f"workload {self.name!r} does not accept pipeline_options "
                f"(got {sorted(pipeline_options)})"
            )
        return SlamBenchRunner(
            self.pipeline,
            n_frames=n_frames,
            width=width,
            height=height,
            dataset_seed=dataset_seed,
            pipeline_seed=pipeline_seed,
            **kwargs,
        )

    def default_pipeline_options(self) -> Dict[str, object]:
        """Pipeline options applied unless a scenario overrides them."""
        return {}

    @property
    def accepts_pipeline_options(self) -> bool:
        """Whether :meth:`make_runner` can forward ``pipeline_options``."""
        return self.pipeline == "elasticfusion"


@register_workload("kfusion")
class KFusionWorkload(SlamWorkload):
    """KinectFusion (Section III-B: ~1.8 M configurations)."""

    name = "kfusion"
    pipeline = "kfusion"

    def space(self) -> DesignSpace:
        return kfusion_design_space()

    def objectives(self, accuracy_limit_m: float = ACCURACY_LIMIT_M) -> ObjectiveSet:
        return kfusion_objectives(accuracy_limit_m)

    def default_config(self) -> Configuration:
        return kfusion_default_config()


@register_workload("elasticfusion")
class ElasticFusionWorkload(SlamWorkload):
    """ElasticFusion (Section III-C: ~450 K configurations)."""

    name = "elasticfusion"
    pipeline = "elasticfusion"

    def space(self) -> DesignSpace:
        return elasticfusion_design_space()

    def objectives(self, accuracy_limit_m: float = ACCURACY_LIMIT_M) -> ObjectiveSet:
        return elasticfusion_objectives(accuracy_limit_m)

    def default_config(self) -> Configuration:
        return elasticfusion_default_config()

    def default_pipeline_options(self) -> Dict[str, object]:
        # Fusion stride 2 keeps a single evaluation affordable at DSE scale
        # without changing the trends (same default the experiments use).
        return {"fusion_stride": 2}


def get_workload(name: str) -> SlamWorkload:
    """Resolve a registered workload by name and instantiate it."""
    cls = WORKLOAD_REGISTRY.get(name)
    return cls() if isinstance(cls, type) else cls


# ---------------------------------------------------------------------------
# The "slambench" evaluator plugin
# ---------------------------------------------------------------------------

_SLAMBENCH_KEYS = (
    "type",
    "workload",
    "device",
    "n_frames",
    "width",
    "height",
    "dataset_seed",
    "pipeline_seed",
    "accuracy_limit_m",
    "pipeline_options",
)


def _validate_slambench_spec(spec: Mapping[str, Any], path: str) -> None:
    """Scenario-time validation with JSON-pointer paths (see core.scenario)."""
    from repro.core.scenario import ScenarioError

    unknown = [k for k in spec if k not in _SLAMBENCH_KEYS]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in slambench evaluator")
    for key in ("workload", "device"):
        if key not in spec:
            raise ScenarioError(f"{path}/{key}", "missing required key")
    try:
        WORKLOAD_REGISTRY.get(spec["workload"])
    except UnknownPluginError as exc:
        raise ScenarioError(f"{path}/workload", str(exc)) from None
    try:
        DEVICE_REGISTRY.get(str(spec["device"]).strip().lower())
    except UnknownPluginError as exc:
        raise ScenarioError(f"{path}/device", str(exc)) from None
    for key in ("n_frames", "width", "height", "dataset_seed", "pipeline_seed"):
        if key in spec and (not isinstance(spec[key], int) or isinstance(spec[key], bool)):
            raise ScenarioError(
                f"{path}/{key}", f"expected an integer, got {type(spec[key]).__name__}"
            )
    if "accuracy_limit_m" in spec and not isinstance(spec["accuracy_limit_m"], (int, float)):
        raise ScenarioError(
            f"{path}/accuracy_limit_m",
            f"expected a number, got {type(spec['accuracy_limit_m']).__name__}",
        )
    if "pipeline_options" in spec:
        if not isinstance(spec["pipeline_options"], Mapping):
            raise ScenarioError(
                f"{path}/pipeline_options",
                f"expected an object, got {type(spec['pipeline_options']).__name__}",
            )
        if spec["pipeline_options"] and not get_workload(spec["workload"]).accepts_pipeline_options:
            raise ScenarioError(
                f"{path}/pipeline_options",
                f"workload {spec['workload']!r} does not accept pipeline options",
            )


@register_evaluator("slambench")
def make_slambench_evaluator(
    spec: Mapping[str, Any], *, runner: Optional[SlamBenchRunner] = None, **_: Any
) -> EvaluatorBinding:
    """Bind a workload + device into a ``config -> metrics`` black box.

    ``runner`` injects a pre-built :class:`SlamBenchRunner` so several studies
    (e.g. the same workload on two devices) share one simulation cache; the
    spec's scale knobs are then ignored in favour of the injected runner.
    """
    workload = get_workload(spec["workload"])
    device = DEVICE_REGISTRY.get(str(spec["device"]).strip().lower())
    if runner is None:
        runner = workload.make_runner(
            n_frames=int(spec.get("n_frames", 60)),
            width=int(spec.get("width", 80)),
            height=int(spec.get("height", 60)),
            dataset_seed=int(spec.get("dataset_seed", 0)),
            pipeline_seed=int(spec.get("pipeline_seed", 0)),
            pipeline_options=spec.get("pipeline_options"),
        )
    accuracy_limit = float(spec.get("accuracy_limit_m", ACCURACY_LIMIT_M))
    return EvaluatorBinding(
        fn=runner.evaluation_function(device),
        space=workload.space(),
        objectives=workload.objectives(accuracy_limit),
        default_config=workload.default_config(),
        info={
            "type": "slambench",
            "workload": workload.name,
            "device": device.name,
            "runner": runner,
        },
    )


make_slambench_evaluator.validate_spec = _validate_slambench_spec
make_slambench_evaluator.provides_problem = True


__all__ = [
    "SlamWorkload",
    "KFusionWorkload",
    "ElasticFusionWorkload",
    "get_workload",
    "make_slambench_evaluator",
]
