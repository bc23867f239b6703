"""Plugin registries: string names in a scenario resolve to implementations.

The paper's tool is operated as a *service*: a client describes a study
declaratively (space, objectives, evaluator, search, budget) and the system
wires the implementation together.  The registries here are the resolution
layer of that wire format — a scenario says ``"acquisition":
"predicted_pareto"`` or ``"workload": "kfusion"`` and the name is looked up
in the corresponding :class:`Registry`.

Third-party code extends the system without touching core::

    from repro.core.registry import register_acquisition

    @register_acquisition("my_lcb")
    class MyAcquisition(AcquisitionStrategy):
        ...

and ``"acquisition": "my_lcb"`` becomes a valid scenario value.

Built-in implementations live in modules this one must not import at module
level (``repro.core.acquisition`` and friends import *us* for the
decorators).  They are loaded lazily: the first lookup or listing imports a
fixed set of provider modules, whose import runs their registration
decorators.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Modules whose import registers every built-in plugin.  Imported lazily on
#: the first registry lookup so this module stays a dependency-free leaf.
_BUILTIN_PROVIDERS = (
    "repro.core.acquisition",
    "repro.core.baselines",
    "repro.core.optimizer",
    "repro.core.scheduler",
    "repro.core.study",
    "repro.devices.catalog",
    "repro.slambench.workloads",
)

_builtins_loaded = False


def load_builtin_plugins() -> None:
    """Import every built-in provider module (idempotent).

    The flag is set up front for re-entrancy (providers import this module)
    but reset if any provider fails to import, so the real error resurfaces
    on the next lookup instead of a misleading half-empty registry.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    try:
        for module in _BUILTIN_PROVIDERS:
            importlib.import_module(module)
    except BaseException:
        _builtins_loaded = False
        raise


class UnknownPluginError(KeyError):
    """An unregistered name was looked up in a registry."""

    def __init__(self, kind: str, name: str, available: List[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = available
        super().__init__(
            f"unknown {kind} {name!r}; registered: {', '.join(available) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return (
            f"unknown {self.kind} {self.name!r}; "
            f"registered: {', '.join(self.available) or '(none)'}"
        )


class Registry:
    """A named mapping from plugin names to implementations.

    Entries are registered with the :meth:`register` decorator (or called
    directly with an object).  Lookups trigger the one-time import of the
    built-in provider modules, so registration order never matters.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    def register(self, name: str, obj: Any = None):
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering an existing name replaces the entry (latest wins), so
        user code can override a built-in implementation.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} plugin name must be a non-empty string")

        def _decorator(target: Any) -> Any:
            self._entries[name] = target
            return target

        if obj is None:
            return _decorator
        return _decorator(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (no-op when absent)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> Any:
        """Resolve ``name``, raising :class:`UnknownPluginError` when absent."""
        load_builtin_plugins()
        try:
            return self._entries[str(name)]
        except KeyError:
            raise UnknownPluginError(self.kind, str(name), self.names()) from None

    def __contains__(self, name: object) -> bool:
        load_builtin_plugins()
        return name in self._entries

    def names(self) -> List[str]:
        """Sorted names of every registered plugin."""
        load_builtin_plugins()
        return sorted(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Registry(kind={self.kind!r}, names={self.names()})"


#: Acquisition strategies (``AcquisitionStrategy`` subclasses).
ACQUISITION_REGISTRY = Registry("acquisition")
#: Search algorithm builders (``SearchContext -> object with .run(...)``).
SEARCH_REGISTRY = Registry("search algorithm")
#: Evaluator factories (``(spec, bindings) -> EvaluatorBinding``).
EVALUATOR_REGISTRY = Registry("evaluator")
#: Workload definitions (design space + objectives + runner factory).
WORKLOAD_REGISTRY = Registry("workload")
#: Device models resolvable by short key.
DEVICE_REGISTRY = Registry("device")
#: Scheduler admission policies (``(pending, started_per_tenant) -> index``).
SCHEDULE_POLICY_REGISTRY = Registry("schedule policy")


def register_acquisition(name: str, obj: Any = None):
    """Register an acquisition strategy class under ``name``."""
    return ACQUISITION_REGISTRY.register(name, obj)


def register_search(name: str, obj: Any = None):
    """Register a search-algorithm builder under ``name``.

    A builder is a callable ``SearchContext -> search`` where ``search``
    exposes ``run(initial_history=None, resume_from=None)`` returning a
    :class:`~repro.core.engine.HyperMapperResult`.
    """
    return SEARCH_REGISTRY.register(name, obj)


def register_evaluator(name: str, obj: Any = None):
    """Register an evaluator factory under ``name``.

    A factory is a callable ``(spec, bindings) -> EvaluatorBinding`` where
    ``spec`` is the scenario's ``evaluator`` section and ``bindings`` carries
    host-injected objects (a Python callable for ``"function"`` evaluators, a
    pre-built runner to share simulation caches, ...).
    """
    return EVALUATOR_REGISTRY.register(name, obj)


def register_workload(name: str, obj: Any = None):
    """Register a workload (design space + objectives + runner factory)."""
    return WORKLOAD_REGISTRY.register(name, obj)


def register_device(name: str, obj: Any = None):
    """Register a device model under a short key (normalized to lower case,
    matching the case-insensitive scenario/catalog lookups)."""
    return DEVICE_REGISTRY.register(str(name).strip().lower(), obj)


def register_schedule_policy(name: str, obj: Any = None):
    """Register a scheduler admission policy under ``name``.

    A policy is a callable ``(pending, started_per_tenant) -> index``
    choosing which waiting study of the live service (an object with a
    ``tenant`` and a ``priority``) is admitted into the next free slot (see
    :mod:`repro.core.scheduler`).
    """
    return SCHEDULE_POLICY_REGISTRY.register(name, obj)


@dataclass
class EvaluatorBinding:
    """What an evaluator factory hands back to the study compiler.

    Attributes
    ----------
    fn:
        The black box: ``Configuration -> {metric: value}``.
    space:
        Design space implied by the evaluator (e.g. a workload's); used when
        the scenario does not declare one explicitly.
    objectives:
        Objectives implied by the evaluator; same fallback role.
    default_config:
        The expert/default configuration, when the evaluator has one.
    info:
        Free-form host-facing metadata (may hold live objects such as a
        runner; not serialized into run artifacts).
    """

    fn: Callable[..., Any]
    space: Optional[Any] = None
    objectives: Optional[Any] = None
    default_config: Optional[Any] = None
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SearchContext:
    """Everything a search builder needs to instantiate its algorithm.

    ``spec`` is the scenario's ``search`` section (already validated);
    builders read their own knobs from it.
    """

    space: Any
    objectives: Any
    executor: Any
    spec: Dict[str, Any]
    seed: Optional[int] = None
    overlap_fraction: Optional[float] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    history_path: Optional[str] = None
    #: Cooperative-preemption poll forwarded to the search driver: checked at
    #: iteration boundaries; a true return parks the run behind a resumable
    #: checkpoint (see :class:`repro.core.engine.SearchPreempted`).
    stop_requested: Optional[Callable[[], bool]] = None


def registry_snapshot() -> Dict[str, List[str]]:
    """Names of every registered plugin, keyed by registry (for CLI/report)."""
    return {
        "acquisition": ACQUISITION_REGISTRY.names(),
        "search": SEARCH_REGISTRY.names(),
        "evaluator": EVALUATOR_REGISTRY.names(),
        "workload": WORKLOAD_REGISTRY.names(),
        "device": DEVICE_REGISTRY.names(),
        "schedule_policy": SCHEDULE_POLICY_REGISTRY.names(),
    }


__all__ = [
    "Registry",
    "UnknownPluginError",
    "EvaluatorBinding",
    "SearchContext",
    "ACQUISITION_REGISTRY",
    "SEARCH_REGISTRY",
    "EVALUATOR_REGISTRY",
    "WORKLOAD_REGISTRY",
    "DEVICE_REGISTRY",
    "SCHEDULE_POLICY_REGISTRY",
    "register_acquisition",
    "register_search",
    "register_evaluator",
    "register_workload",
    "register_device",
    "register_schedule_policy",
    "registry_snapshot",
    "load_builtin_plugins",
]
