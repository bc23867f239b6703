"""The versioned, declarative scenario schema (JSON/TOML/dict wire format).

A *scenario* is the complete, serializable description of one study: design
space, objectives, constraints, evaluator, search algorithm + acquisition,
executor shape, budget, seed and checkpoint cadence.  It is the stable wire
format a web frontend, crowd fleet or batch farm submits — the same role the
JSON scenario file plays for HyperMapper as a service.

Scenarios are

* **validated** with precise JSON-pointer-style error paths
  (``/search/acquisition: unknown acquisition 'foo'``),
* **versioned** (``schema_version``; mismatches are rejected up front),
* **losslessly round-trippable**: ``Scenario.from_dict(s.to_dict()) == s``,
  with parameters serialized via :meth:`Parameter.to_dict
  <repro.core.parameters.Parameter.to_dict>` — the exact inverse of
  :func:`~repro.core.parameters.parameter_from_dict`.

Plugin names (evaluator type, workload, device, search algorithm,
acquisition) resolve through :mod:`repro.core.registry`, so third-party
registrations become valid scenario values without touching this module.
"""

from __future__ import annotations

import copy
import inspect
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.constraints import BoundConstraint, ConstraintSet
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.parameters import parameter_from_dict
from repro.core.registry import (
    ACQUISITION_REGISTRY,
    EVALUATOR_REGISTRY,
    SEARCH_REGISTRY,
    UnknownPluginError,
)
from repro.core.space import DesignSpace
from repro.core.surrogate import MultiObjectiveSurrogate
from repro.utils.rng import derive_seed

#: Version of the scenario wire format accepted by this code.
SCENARIO_VERSION = 1

#: Top-level keys a scenario may contain.
_TOP_LEVEL_KEYS = (
    "schema_version",
    "name",
    "space",
    "objectives",
    "constraints",
    "evaluator",
    "search",
    "executor",
    "budget",
    "seed",
    "checkpoint",
    "faults",
)


class ScenarioError(ValueError):
    """A scenario failed validation.

    ``path`` is a JSON-pointer-style path to the offending key
    (``/search/acquisition``, ``/space/parameters/2/values``), so a service
    can hand the error straight back to whoever submitted the spec.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path or "/"
        self.reason = message
        super().__init__(f"{self.path}: {message}")


def _type_name(value: Any) -> str:
    return type(value).__name__


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expect_mapping(value: Any, path: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected an object, got {_type_name(value)}")
    return dict(value)


def _expect_str(value: Any, path: str, allow_empty: bool = False) -> str:
    if not isinstance(value, str) or (not value and not allow_empty):
        raise ScenarioError(path, f"expected a non-empty string, got {_type_name(value)}")
    return value


def _expect_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected a boolean, got {_type_name(value)}")
    return value


def _expect_int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if not _is_int(value):
        raise ScenarioError(path, f"expected an integer, got {_type_name(value)}")
    if minimum is not None and value < minimum:
        raise ScenarioError(path, f"expected an integer >= {minimum}, got {value}")
    return int(value)


def _expect_number(value: Any, path: str) -> float:
    if not _is_number(value):
        raise ScenarioError(path, f"expected a number, got {_type_name(value)}")
    return float(value)


# ---------------------------------------------------------------------------
# Section validators
# ---------------------------------------------------------------------------


def _validate_space(section: Any, path: str) -> Dict[str, Any]:
    space = _expect_mapping(section, path)
    unknown = [k for k in space if k not in ("name", "parameters")]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in space section")
    if "parameters" not in space:
        raise ScenarioError(f"{path}/parameters", "missing required key")
    params = space["parameters"]
    if not isinstance(params, Sequence) or isinstance(params, (str, bytes)):
        raise ScenarioError(f"{path}/parameters", f"expected a list, got {_type_name(params)}")
    if len(params) == 0:
        raise ScenarioError(f"{path}/parameters", "a design space needs at least one parameter")
    out_params: List[Dict[str, Any]] = []
    for i, spec in enumerate(params):
        p_path = f"{path}/parameters/{i}"
        spec = _expect_mapping(spec, p_path)
        try:
            parameter_from_dict(spec)
        except KeyError as exc:
            raise ScenarioError(p_path, f"missing required key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ScenarioError(p_path, str(exc)) from None
        out_params.append(spec)
    out: Dict[str, Any] = {"parameters": out_params}
    if "name" in space:
        out["name"] = _expect_str(space["name"], f"{path}/name")
    return out


def _validate_objectives(section: Any, path: str) -> List[Dict[str, Any]]:
    if not isinstance(section, Sequence) or isinstance(section, (str, bytes)):
        raise ScenarioError(path, f"expected a list, got {_type_name(section)}")
    if len(section) == 0:
        raise ScenarioError(path, "at least one objective is required")
    out: List[Dict[str, Any]] = []
    for i, spec in enumerate(section):
        o_path = f"{path}/{i}"
        spec = _expect_mapping(spec, o_path)
        unknown = [k for k in spec if k not in ("name", "minimize", "unit", "limit")]
        if unknown:
            raise ScenarioError(f"{o_path}/{unknown[0]}", "unknown key in objective")
        if "name" not in spec:
            raise ScenarioError(f"{o_path}/name", "missing required key")
        entry: Dict[str, Any] = {"name": _expect_str(spec["name"], f"{o_path}/name")}
        entry["minimize"] = (
            _expect_bool(spec["minimize"], f"{o_path}/minimize") if "minimize" in spec else True
        )
        entry["unit"] = (
            _expect_str(spec["unit"], f"{o_path}/unit", allow_empty=True)
            if "unit" in spec
            else ""
        )
        limit = spec.get("limit")
        entry["limit"] = None if limit is None else _expect_number(limit, f"{o_path}/limit")
        out.append(entry)
    names = [o["name"] for o in out]
    if len(set(names)) != len(names):
        raise ScenarioError(path, f"duplicate objective names: {names}")
    return out


def _validate_constraints(section: Any, path: str) -> List[Dict[str, Any]]:
    if not isinstance(section, Sequence) or isinstance(section, (str, bytes)):
        raise ScenarioError(path, f"expected a list, got {_type_name(section)}")
    out: List[Dict[str, Any]] = []
    for i, spec in enumerate(section):
        c_path = f"{path}/{i}"
        spec = _expect_mapping(spec, c_path)
        unknown = [k for k in spec if k not in ("metric", "upper", "lower", "name")]
        if unknown:
            raise ScenarioError(f"{c_path}/{unknown[0]}", "unknown key in constraint")
        if "metric" not in spec:
            raise ScenarioError(f"{c_path}/metric", "missing required key")
        entry: Dict[str, Any] = {"metric": _expect_str(spec["metric"], f"{c_path}/metric")}
        for bound in ("upper", "lower"):
            value = spec.get(bound)
            entry[bound] = None if value is None else _expect_number(value, f"{c_path}/{bound}")
        if entry["upper"] is None and entry["lower"] is None:
            raise ScenarioError(c_path, "a constraint needs at least one of 'upper'/'lower'")
        if "name" in spec:
            entry["name"] = _expect_str(spec["name"], f"{c_path}/name")
        out.append(entry)
    return out


def _validate_evaluator(section: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(section, path)
    if "type" not in spec:
        raise ScenarioError(f"{path}/type", "missing required key")
    kind = _expect_str(spec["type"], f"{path}/type")
    try:
        factory = EVALUATOR_REGISTRY.get(kind)
    except UnknownPluginError as exc:
        raise ScenarioError(f"{path}/type", str(exc)) from None
    # Plugin-specific spec validation (e.g. the slambench evaluator checks
    # its workload/device names against their registries).
    validate_spec = getattr(factory, "validate_spec", None)
    if validate_spec is not None:
        validate_spec(spec, path)
    return spec


def _validate_acquisition(value: Any, path: str) -> Union[str, Dict[str, Any]]:
    if isinstance(value, str):
        name, out = value, value
    else:
        spec = _expect_mapping(value, path)
        if "name" not in spec:
            raise ScenarioError(f"{path}/name", "missing required key")
        name = _expect_str(spec["name"], f"{path}/name")
        out = spec
    try:
        ACQUISITION_REGISTRY.get(name)
    except UnknownPluginError as exc:
        raise ScenarioError(
            f"{path}/name" if isinstance(out, dict) else path, str(exc)
        ) from None
    return out


#: Keys of ``search.surrogate``: the surrogate constructor's knobs, minus
#: what the search builder supplies itself (space, objectives and seed).
_SURROGATE_KEYS = tuple(
    name
    for name in inspect.signature(MultiObjectiveSurrogate).parameters
    if name not in ("space", "objectives", "random_state")
)


def _validate_surrogate(value: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(value, path)
    unknown = [k for k in spec if k not in _SURROGATE_KEYS]
    if unknown:
        raise ScenarioError(
            f"{path}/{unknown[0]}",
            f"unknown surrogate key (accepted: {', '.join(sorted(_SURROGATE_KEYS))})",
        )
    return spec


#: Generic search-section knobs with their validators.  Algorithm-specific
#: keys beyond these are passed through to the registered builder untouched.
_SEARCH_FIELD_VALIDATORS = {
    "n_random_samples": lambda v, p: _expect_int(v, p, minimum=1),
    "max_iterations": lambda v, p: _expect_int(v, p, minimum=0),
    "max_samples_per_iteration": lambda v, p: None if v is None else _expect_int(v, p, minimum=1),
    "pool_size": lambda v, p: None if v is None else _expect_int(v, p, minimum=1),
    "feasible_only": _expect_bool,
    "surrogate": _validate_surrogate,
    "budget": lambda v, p: _expect_int(v, p, minimum=1),
    "levels": lambda v, p: _expect_int(v, p, minimum=1),
    "n_restarts": lambda v, p: _expect_int(v, p, minimum=1),
    "population_size": lambda v, p: _expect_int(v, p, minimum=4),
    "mutation_rate": _expect_number,
    "exploration": _expect_number,
    "batch_size": lambda v, p: _expect_int(v, p, minimum=1),
}


#: Keys each built-in algorithm understands.  Unknown keys are rejected for
#: these (a typo'd knob must not silently fall back to its default); spec
#: keys of third-party algorithms pass through to their registered builders.
_BUILTIN_SEARCH_KEYS = {
    "hypermapper": {
        "algorithm",
        "acquisition",
        "n_random_samples",
        "max_iterations",
        "max_samples_per_iteration",
        "pool_size",
        "feasible_only",
        "surrogate",
    },
    "random": {"algorithm", "budget"},
    "grid": {"algorithm", "budget", "levels"},
    "local": {"algorithm", "budget", "weights", "n_restarts"},
    "evolutionary": {"algorithm", "budget", "population_size", "mutation_rate"},
    "bandit": {"algorithm", "budget", "exploration", "batch_size"},
}

#: Built-in algorithms that cannot run without an evaluation budget.
_BUDGET_REQUIRED_ALGORITHMS = ("random", "local", "evolutionary", "bandit")


def _validate_search(section: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(section, path)
    out = dict(spec)
    algorithm = spec.get("algorithm", "hypermapper")
    algorithm = _expect_str(algorithm, f"{path}/algorithm")
    try:
        builder = SEARCH_REGISTRY.get(algorithm)
    except UnknownPluginError as exc:
        raise ScenarioError(f"{path}/algorithm", str(exc)) from None
    out["algorithm"] = algorithm
    # The built-in key/type tables apply only while the registered builder is
    # the unmodified built-in (marker set at registration).  A user override
    # or third-party algorithm gets pass-through semantics: its builder owns
    # the interpretation of every key, including generically named ones.
    if getattr(builder, "builtin_search_name", None) != algorithm:
        return out
    known_keys = _BUILTIN_SEARCH_KEYS.get(algorithm, set())
    unknown = [k for k in spec if k not in known_keys]
    if unknown:
        raise ScenarioError(
            f"{path}/{unknown[0]}",
            f"unknown key for the {algorithm!r} search algorithm "
            f"(accepted: {', '.join(sorted(known_keys))})",
        )
    if algorithm in _BUDGET_REQUIRED_ALGORITHMS and "budget" not in spec:
        raise ScenarioError(
            f"{path}/budget", f"required by the {algorithm!r} search algorithm"
        )
    if "acquisition" in spec and spec["acquisition"] is not None:
        out["acquisition"] = _validate_acquisition(spec["acquisition"], f"{path}/acquisition")
    for key, validator in _SEARCH_FIELD_VALIDATORS.items():
        if key in spec:
            validated = validator(spec[key], f"{path}/{key}")
            if validated is not None:
                out[key] = validated
    return out


_TRANSPORT_KEYS = ("host", "port", "heartbeat_s", "workers", "announce_file")


def _validate_transport(section: Any, path: str) -> Dict[str, Any]:
    """The socket backend's ``executor.transport`` wiring.

    Like ``faults``, this section is materialized (defaults filled in) only
    when the executor backend is ``"socket"`` — thread-backend scenario
    documents stay byte-identical to earlier versions.
    """
    spec = _expect_mapping(section, path)
    unknown = [k for k in spec if k not in _TRANSPORT_KEYS]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in transport section")
    out: Dict[str, Any] = {
        "host": _expect_str(spec.get("host", "127.0.0.1"), f"{path}/host"),
        "port": _expect_int(spec.get("port", 0), f"{path}/port", minimum=0),
        "heartbeat_s": _expect_number(spec.get("heartbeat_s", 5.0), f"{path}/heartbeat_s"),
        "workers": _expect_str(spec.get("workers", "local"), f"{path}/workers"),
        "announce_file": None,
    }
    if out["port"] > 65535:
        raise ScenarioError(f"{path}/port", "expected a TCP port in [0, 65535]")
    if not out["heartbeat_s"] > 0:
        raise ScenarioError(f"{path}/heartbeat_s", "expected a positive number of seconds")
    if out["workers"] not in ("local", "external"):
        raise ScenarioError(f"{path}/workers", "expected 'local' or 'external'")
    announce = spec.get("announce_file")
    if announce is not None:
        out["announce_file"] = _expect_str(announce, f"{path}/announce_file")
    return out


def _validate_executor(section: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(section, path)
    unknown = [k for k in spec if k not in ("n_workers", "backend", "overlap_fraction", "transport")]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in executor section")
    out: Dict[str, Any] = {
        "n_workers": _expect_int(spec.get("n_workers", 1), f"{path}/n_workers", minimum=1),
        "backend": _expect_str(spec.get("backend", "thread"), f"{path}/backend"),
        "overlap_fraction": None,
    }
    if out["backend"] not in ("thread", "socket"):
        raise ScenarioError(
            f"{path}/backend",
            "expected 'thread' or 'socket' (the 'process' backend is gone: run "
            "`repro eval-worker` processes for parallel evaluation)",
        )
    if out["backend"] == "socket":
        out["transport"] = _validate_transport(spec.get("transport", {}), f"{path}/transport")
    elif "transport" in spec:
        raise ScenarioError(f"{path}/transport", "only valid with backend 'socket'")
    overlap = spec.get("overlap_fraction")
    if overlap is not None:
        overlap = _expect_number(overlap, f"{path}/overlap_fraction")
        if not 0.0 < overlap <= 1.0:
            raise ScenarioError(f"{path}/overlap_fraction", "expected a fraction in (0, 1]")
        out["overlap_fraction"] = overlap
    return out


def _validate_budget(section: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(section, path)
    unknown = [k for k in spec if k not in ("max_evaluations",)]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in budget section")
    value = spec.get("max_evaluations")
    return {
        "max_evaluations": None
        if value is None
        else _expect_int(value, f"{path}/max_evaluations", minimum=1)
    }


def _validate_checkpoint(section: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(section, path)
    unknown = [k for k in spec if k not in ("every",)]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in checkpoint section")
    return {"every": _expect_int(spec.get("every", 1), f"{path}/every", minimum=1)}


_FAULT_KEYS = (
    "max_retries",
    "timeout_s",
    "quarantine",
    "penalty",
    "backoff_base_s",
    "backoff_factor",
    "backoff_jitter",
    "backoff_max_s",
    "inject",
)
_INJECT_KEYS = ("seed", "drop_rate", "delay_rate", "delay_s", "corrupt_rate", "crash_rate")


def _expect_rate(value: Any, path: str) -> float:
    rate = _expect_number(value, path)
    if not 0.0 <= rate <= 1.0:
        raise ScenarioError(path, f"expected a probability in [0, 1], got {rate}")
    return float(rate)


def _validate_faults(section: Any, path: str) -> Dict[str, Any]:
    """The optional fault-tolerance section (see :mod:`repro.core.faults`).

    Unlike the always-materialized sections above, ``faults`` appears in the
    normalized scenario only when the input declared it, so fault-free
    scenario documents stay byte-identical to earlier versions.
    """
    spec = _expect_mapping(section, path)
    unknown = [k for k in spec if k not in _FAULT_KEYS]
    if unknown:
        raise ScenarioError(f"{path}/{unknown[0]}", "unknown key in faults section")
    out: Dict[str, Any] = {
        "max_retries": _expect_int(spec.get("max_retries", 0), f"{path}/max_retries", minimum=0),
        "timeout_s": None,
        "quarantine": _expect_bool(spec.get("quarantine", True), f"{path}/quarantine"),
        "penalty": _expect_number(spec.get("penalty", 1e9), f"{path}/penalty"),
        "backoff_base_s": _expect_number(spec.get("backoff_base_s", 0.0), f"{path}/backoff_base_s"),
        "backoff_factor": _expect_number(spec.get("backoff_factor", 2.0), f"{path}/backoff_factor"),
        "backoff_jitter": _expect_number(spec.get("backoff_jitter", 0.0), f"{path}/backoff_jitter"),
        "backoff_max_s": None,
        "inject": None,
    }
    timeout = spec.get("timeout_s")
    if timeout is not None:
        timeout = _expect_number(timeout, f"{path}/timeout_s")
        if not timeout > 0:
            raise ScenarioError(f"{path}/timeout_s", "expected a positive number of seconds")
        out["timeout_s"] = timeout
    if not out["penalty"] > 0:
        raise ScenarioError(f"{path}/penalty", "expected a positive penalty magnitude")
    if out["backoff_base_s"] < 0:
        raise ScenarioError(f"{path}/backoff_base_s", "expected a non-negative number")
    if out["backoff_factor"] < 1.0:
        raise ScenarioError(f"{path}/backoff_factor", "expected a factor >= 1")
    if out["backoff_jitter"] < 0:
        raise ScenarioError(f"{path}/backoff_jitter", "expected a non-negative number")
    backoff_max = spec.get("backoff_max_s")
    if backoff_max is not None:
        backoff_max = _expect_number(backoff_max, f"{path}/backoff_max_s")
        if backoff_max < 0:
            raise ScenarioError(f"{path}/backoff_max_s", "expected a non-negative number")
        out["backoff_max_s"] = backoff_max
    inject = spec.get("inject")
    if inject is not None:
        ipath = f"{path}/inject"
        ispec = _expect_mapping(inject, ipath)
        unknown = [k for k in ispec if k not in _INJECT_KEYS]
        if unknown:
            raise ScenarioError(f"{ipath}/{unknown[0]}", "unknown key in fault-injection section")
        seed = ispec.get("seed")
        delay_s = _expect_number(ispec.get("delay_s", 0.0), f"{ipath}/delay_s")
        if delay_s < 0:
            raise ScenarioError(f"{ipath}/delay_s", "expected a non-negative number of seconds")
        out["inject"] = {
            "seed": None if seed is None else _expect_int(seed, f"{ipath}/seed"),
            "drop_rate": _expect_rate(ispec.get("drop_rate", 0.0), f"{ipath}/drop_rate"),
            "delay_rate": _expect_rate(ispec.get("delay_rate", 0.0), f"{ipath}/delay_rate"),
            "delay_s": delay_s,
            "corrupt_rate": _expect_rate(ispec.get("corrupt_rate", 0.0), f"{ipath}/corrupt_rate"),
            "crash_rate": _expect_rate(ispec.get("crash_rate", 0.0), f"{ipath}/crash_rate"),
        }
    return out


def set_by_path(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set a dotted-path key in a nested scenario mapping (in place).

    ``set_by_path(d, "evaluator.device", "tk1")`` assigns
    ``d["evaluator"]["device"]``, creating intermediate objects as needed (so
    an axis over ``"executor.n_workers"`` works even when the base scenario
    omits the ``executor`` section).  Overriding *below* a non-object value
    is rejected with a pointer path — a sweep axis must never silently
    clobber a scalar.
    """
    parts = [p for p in str(path).split(".") if p]
    if not parts:
        raise ScenarioError("/", f"invalid override path {path!r}")
    node = data
    for depth, part in enumerate(parts[:-1]):
        child = node.get(part)
        if child is None:
            child = node[part] = {}
        elif not isinstance(child, dict):
            pointer = "/" + "/".join(parts[: depth + 1])
            raise ScenarioError(
                pointer, f"cannot apply override {path!r} below a non-object value"
            )
        node = child
    node[parts[-1]] = copy.deepcopy(value)


def validate_scenario(data: Any, name: Optional[str] = None) -> Dict[str, Any]:
    """Validate a raw scenario mapping and return its normalized form.

    Raises :class:`ScenarioError` with a JSON-pointer-style ``path`` on the
    first violation: unknown plugin names, missing required fields, wrong
    types, and schema-version mismatches all point at the offending key.
    """
    data = _expect_mapping(data, "/")
    unknown = [k for k in data if k not in _TOP_LEVEL_KEYS]
    if unknown:
        raise ScenarioError(f"/{unknown[0]}", "unknown top-level key")

    if "schema_version" not in data:
        raise ScenarioError("/schema_version", "missing required key")
    version = data["schema_version"]
    if not _is_int(version):
        raise ScenarioError("/schema_version", f"expected an integer, got {_type_name(version)}")
    if version != SCENARIO_VERSION:
        raise ScenarioError(
            "/schema_version",
            f"unsupported schema version {version} (this build understands {SCENARIO_VERSION})",
        )

    out: Dict[str, Any] = {"schema_version": SCENARIO_VERSION}
    out["name"] = (
        _expect_str(data["name"], "/name") if "name" in data else (name or "scenario")
    )

    if "evaluator" not in data:
        raise ScenarioError("/evaluator", "missing required key")
    out["evaluator"] = _validate_evaluator(data["evaluator"], "/evaluator")

    if data.get("space") is not None:
        out["space"] = _validate_space(data["space"], "/space")
    else:
        out["space"] = None
    if data.get("objectives") is not None:
        out["objectives"] = _validate_objectives(data["objectives"], "/objectives")
    else:
        out["objectives"] = None
    out["constraints"] = _validate_constraints(data.get("constraints", []), "/constraints")
    out["search"] = _validate_search(data.get("search", {}), "/search")
    out["executor"] = _validate_executor(data.get("executor", {}), "/executor")
    out["budget"] = _validate_budget(data.get("budget", {}), "/budget")
    out["checkpoint"] = _validate_checkpoint(data.get("checkpoint", {}), "/checkpoint")
    if data.get("faults") is not None:
        out["faults"] = _validate_faults(data["faults"], "/faults")

    seed = data.get("seed")
    out["seed"] = None if seed is None else _expect_int(seed, "/seed")

    if out["executor"]["backend"] == "socket" and out["evaluator"]["type"] == "function":
        raise ScenarioError(
            "/executor/backend",
            "socket workers cannot call a host 'function' evaluator: use backend "
            "'thread', or register an evaluator plugin the workers import",
        )

    # Problems the evaluator does not supply must be declared in the spec.
    factory = EVALUATOR_REGISTRY.get(out["evaluator"]["type"])
    provides_problem = bool(getattr(factory, "provides_problem", False))
    if out["space"] is None and not provides_problem:
        raise ScenarioError(
            "/space",
            f"required: evaluator type {out['evaluator']['type']!r} does not supply a design space",
        )
    if out["objectives"] is None and not provides_problem:
        raise ScenarioError(
            "/objectives",
            f"required: evaluator type {out['evaluator']['type']!r} does not supply objectives",
        )
    return out


class Scenario:
    """A validated, normalized scenario (see :func:`validate_scenario`).

    Instances compare equal by their normalized dict, and
    ``Scenario.from_dict(s.to_dict()) == s`` holds (lossless round trip).
    """

    def __init__(self, data: Mapping[str, Any], *, name: Optional[str] = None) -> None:
        self._data = validate_scenario(data, name=name)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, name: Optional[str] = None) -> "Scenario":
        """Validate a plain mapping into a scenario."""
        return cls(data, name=name)

    @classmethod
    def from_json(cls, text: str, *, name: Optional[str] = None) -> "Scenario":
        """Parse a JSON document into a scenario."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("/", f"invalid JSON: {exc}") from None
        return cls(data, name=name)

    @classmethod
    def from_toml(cls, text: str, *, name: Optional[str] = None) -> "Scenario":
        """Parse a TOML document into a scenario (Python 3.11+ ``tomllib``)."""
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError("/", f"invalid TOML: {exc}") from None
        return cls(data, name=name)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "Scenario":
        """Load a scenario from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            return cls.from_toml(text, name=path.stem)
        return cls.from_json(text, name=path.stem)

    @staticmethod
    def coerce(value: Union["Scenario", Mapping[str, Any], str, Path]) -> "Scenario":
        """Accept a scenario, a raw mapping, or a path to a scenario file."""
        if isinstance(value, Scenario):
            return value
        if isinstance(value, (str, Path)):
            return Scenario.from_file(value)
        return Scenario.from_dict(value)

    # -- accessors ------------------------------------------------------------
    @property
    def name(self) -> str:
        """Scenario name (defaults to the source file stem)."""
        return self._data["name"]

    @property
    def schema_version(self) -> int:
        """Wire-format version this scenario was validated against."""
        return self._data["schema_version"]

    @property
    def seed(self) -> Optional[int]:
        """Master seed of the run (``None`` = unseeded)."""
        return self._data["seed"]

    @property
    def evaluator_spec(self) -> Dict[str, Any]:
        """The ``evaluator`` section."""
        return copy.deepcopy(self._data["evaluator"])

    @property
    def search_spec(self) -> Dict[str, Any]:
        """The ``search`` section (``algorithm`` always present)."""
        return copy.deepcopy(self._data["search"])

    @property
    def executor_spec(self) -> Dict[str, Any]:
        """The ``executor`` section with defaults materialized."""
        return copy.deepcopy(self._data["executor"])

    @property
    def budget_spec(self) -> Dict[str, Any]:
        """The ``budget`` section with defaults materialized."""
        return copy.deepcopy(self._data["budget"])

    @property
    def checkpoint_spec(self) -> Dict[str, Any]:
        """The ``checkpoint`` section with defaults materialized."""
        return copy.deepcopy(self._data["checkpoint"])

    @property
    def faults_spec(self) -> Optional[Dict[str, Any]]:
        """The ``faults`` section (``None`` when the scenario declares none)."""
        return copy.deepcopy(self._data.get("faults"))

    def evaluation_spec(self) -> Dict[str, Any]:
        """The scenario document a worker rebuilds this study's black box from.

        Its name, ``evaluator``, ``space`` and ``objectives`` sections, and
        ``faults.inject`` with its derived seed filled in;
        :func:`repro.core.study.build_evaluator` builds it.
        """
        keys = ("schema_version", "name", "evaluator", "space", "objectives")
        spec = copy.deepcopy({k: self._data[k] for k in keys})
        inject = (self._data.get("faults") or {}).get("inject")
        if inject is not None:
            # Derived from the scenario seed, so the fault trace is part of
            # the run's identity: same seed -> same faults -> same history.
            seed = derive_seed(self.seed, "fault-injection") if inject["seed"] is None else inject["seed"]
            spec["faults"] = {"inject": dict(inject, seed=seed)}
        return spec

    # -- problem construction -------------------------------------------------
    def build_space(self) -> Optional[DesignSpace]:
        """The explicitly declared design space (``None`` = evaluator-supplied)."""
        section = self._data["space"]
        if section is None:
            return None
        return DesignSpace.from_specs(
            section["parameters"], name=section.get("name", self.name)
        )

    def build_objectives(self) -> Optional[ObjectiveSet]:
        """The explicitly declared objectives (``None`` = evaluator-supplied)."""
        section = self._data["objectives"]
        if section is None:
            return None
        return ObjectiveSet(
            [
                Objective(o["name"], minimize=o["minimize"], unit=o["unit"], limit=o["limit"])
                for o in section
            ]
        )

    def build_constraints(self) -> ConstraintSet:
        """The declared metric-bound constraints."""
        out = ConstraintSet()
        for c in self._data["constraints"]:
            out.add(
                BoundConstraint(c["metric"], upper=c["upper"], lower=c["lower"], name=c.get("name"))
            )
        return out

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The normalized scenario as a plain dict (deep copy)."""
        return copy.deepcopy(self._data)

    def to_json(self, indent: int = 2) -> str:
        """The normalized scenario as a JSON document."""
        return json.dumps(self._data, indent=indent, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the normalized scenario to ``path`` as JSON (atomically)."""
        from repro.core.durable import atomic_write_text

        return atomic_write_text(Path(path), self.to_json() + "\n")

    def replace(self, **sections: Any) -> "Scenario":
        """A new scenario with some top-level sections replaced and re-validated."""
        data = self.to_dict()
        for key, value in sections.items():
            if key not in _TOP_LEVEL_KEYS:
                raise ScenarioError(f"/{key}", "unknown top-level key")
            data[key] = value
        return Scenario.from_dict(data)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Scenario":
        """A new scenario with dotted-path overrides applied and re-validated.

        ``overrides`` maps dotted paths into the scenario document to
        replacement values (``{"seed": 3, "evaluator.device": "odroid-xu3",
        "search": {...}}``) — the unit of variation a sweep axis uses.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            set_by_path(data, path, value)
        return Scenario.from_dict(data)

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scenario):
            return self._data == other._data
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"Scenario(name={self.name!r}, evaluator={self._data['evaluator'].get('type')!r}, "
            f"algorithm={self._data['search']['algorithm']!r})"
        )


__all__ = [
    "SCENARIO_VERSION",
    "ScenarioError",
    "validate_scenario",
    "set_by_path",
    "Scenario",
]
