"""Scenario sweeps: one spec expands into a fleet of studies.

The paper's central workflow is not one optimization run but *fleets* of
them — KFusion and ElasticFusion explored across devices, seeds and budgets.
A **sweep spec** is the wire format for that workflow: a base scenario plus
axes of variation, expanded deterministically into N scenarios and
persisted as a **versioned sweep directory**::

    sweep_dir/
      sweep.json             # manifest: normalized spec + per-point status,
                             #   lease owner and fencing generation
      points/<point_id>/     # one PR-4 run dir per point (scenario.json, ...)
      leases/                # <point_id>.lease.json while a worker holds it
      .sweep.lock            # advisory lock around manifest + lease updates
      comparison.json        # cross-run report: fronts, hypervolumes, curves
      comparison.md          # the same, as a readable table

There is one way to drain a sweep directory: :class:`SweepWorker` claims
points under durable leases (:mod:`repro.core.leases`), runs up to
``max_concurrent_studies`` of them at once, each through
:func:`~repro.core.study.run_in_dir` (the reload/resume/fresh decision the
live service shares), and settles its status into the manifest.
:func:`run_sweep` is :func:`prepare_sweep_dir` plus one in-process worker
plus :meth:`SweepWorker.finalize`; ``python -m repro sweep-worker``
processes speak the same protocol and may join the same directory at any
time.

Key invariants (pinned by ``tests/test_sweep_scheduler.py`` and
``tests/test_distributed_sweep.py``):

* **per-point bit-identity** — a point's ``history.jsonl`` under
  ``max_concurrent_studies=k``, or drained by any number of workers, equals
  the standalone ``Study.run`` history of the same scenario;
* **crash isolation** — a failing point is recorded in the manifest
  (``status: "failed"`` with the error) and every sibling completes;
* **resumability** — ``resume=True`` re-opens every settled point whose
  run dir is not complete, continues it from its checkpoint, and leaves
  finished points alone.

Spec format (JSON or TOML, ``schema_version: 1``)::

    {"schema_version": 1,
     "name": "kfusion-seed-device",
     "scheduler": {"max_concurrent_studies": 4, "worker_budget": 8},
     "base": { ... a full scenario ... },
     "axes": {"seed": [3, 7], "evaluator.device": ["odroid-xu3", "tk1"]},
     "points": [{"seed": 13, "search.budget": 20}]}

``axes`` expand as a cartesian product in declaration order (last axis
fastest); ``points`` are explicit override sets appended after.  Axis keys
are dotted paths into the scenario document
(:func:`~repro.core.scenario.set_by_path`); a value may be a whole section
(e.g. an axis over ``"search"`` swapping algorithms).  ``scheduler.policy``
is validated and kept in the manifest, but it does not reorder a sweep:
workers claim points in manifest order.
"""

from __future__ import annotations

import concurrent.futures
import copy
import itertools
import json
import re
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.durable import FileLock, atomic_write_text
from repro.core.leases import DEFAULT_TTL_S, Lease, LeaseStore, StaleLeaseError
from repro.core.pareto import hypervolume_2d
from repro.core.registry import SCHEDULE_POLICY_REGISTRY, UnknownPluginError
from repro.core.scenario import (
    Scenario,
    ScenarioError,
    _expect_int,
    _expect_mapping,
    _expect_number,
    _expect_str,
    _is_int,
    _type_name,
    set_by_path,
    validate_scenario,
)
from repro.core.faults import summarize_faults
from repro.core.study import StudyResult, apply_constraints, run_in_dir, run_status

#: Version of the sweep wire format accepted by this code.
SWEEP_VERSION = 1
#: Version stamp of the persisted sweep-directory layout.
SWEEP_DIR_VERSION = 1

#: File/directory names inside a sweep directory.
SWEEP_FILE = "sweep.json"
COMPARISON_FILE = "comparison.json"
COMPARISON_MD_FILE = "comparison.md"
POINTS_DIR = "points"
LEASES_DIR = "leases"
SWEEP_LOCK_FILE = ".sweep.lock"

#: Manifest point statuses that need no further work.
TERMINAL_STATUSES = ("complete", "degraded", "failed", "invalid")

#: Shortest wait before a worker retries points leased by live siblings.
_CLAIM_POLL_S = 0.25

_TOP_LEVEL_KEYS = ("schema_version", "name", "base", "axes", "points", "scheduler")


class SweepError(ScenarioError):
    """A sweep spec failed validation (JSON-pointer ``path`` included)."""


def _validate_scheduler(section: Any, path: str) -> Dict[str, Any]:
    spec = _expect_mapping(section, path)
    known = (
        "max_concurrent_studies",
        "worker_budget",
        "policy",
        "study_max_retries",
        "retry_backoff_s",
    )
    unknown = [k for k in spec if k not in known]
    if unknown:
        raise SweepError(f"{path}/{unknown[0]}", "unknown key in scheduler section")
    out: Dict[str, Any] = {
        "max_concurrent_studies": _expect_int(
            spec.get("max_concurrent_studies", 1), f"{path}/max_concurrent_studies", minimum=1
        )
    }
    budget = spec.get("worker_budget")
    out["worker_budget"] = (
        None if budget is None else _expect_int(budget, f"{path}/worker_budget", minimum=1)
    )
    policy = _expect_str(spec.get("policy", "fair_share"), f"{path}/policy")
    try:
        SCHEDULE_POLICY_REGISTRY.get(policy)
    except UnknownPluginError as exc:
        raise SweepError(f"{path}/policy", str(exc)) from None
    out["policy"] = policy
    # Study-level retry knobs are emitted only when declared, so existing
    # sweep manifests (and their golden copies) stay byte-identical.
    if "study_max_retries" in spec:
        out["study_max_retries"] = _expect_int(
            spec["study_max_retries"], f"{path}/study_max_retries", minimum=0
        )
    if "retry_backoff_s" in spec:
        backoff = _expect_number(spec["retry_backoff_s"], f"{path}/retry_backoff_s")
        if backoff < 0:
            raise SweepError(f"{path}/retry_backoff_s", "expected a non-negative number")
        out["retry_backoff_s"] = backoff
    return out


def validate_sweep(data: Any, name: Optional[str] = None) -> Dict[str, Any]:
    """Validate a raw sweep mapping and return its normalized form.

    Mirrors :func:`~repro.core.scenario.validate_scenario`: the first
    violation raises :class:`SweepError` with a JSON-pointer path (base
    scenario errors are re-rooted under ``/base``).
    """
    try:
        return _validate_sweep(data, name)
    except SweepError:
        raise
    except ScenarioError as exc:  # shared field validators raise the base type
        raise SweepError(exc.path, exc.reason) from None


def _validate_sweep(data: Any, name: Optional[str]) -> Dict[str, Any]:
    data = _expect_mapping(data, "/")
    unknown = [k for k in data if k not in _TOP_LEVEL_KEYS]
    if unknown:
        raise SweepError(f"/{unknown[0]}", "unknown top-level key")

    if "schema_version" not in data:
        raise SweepError("/schema_version", "missing required key")
    version = data["schema_version"]
    if not _is_int(version):
        raise SweepError("/schema_version", f"expected an integer, got {_type_name(version)}")
    if version != SWEEP_VERSION:
        raise SweepError(
            "/schema_version",
            f"unsupported sweep version {version} (this build understands {SWEEP_VERSION})",
        )

    out: Dict[str, Any] = {"schema_version": SWEEP_VERSION}
    out["name"] = _expect_str(data["name"], "/name") if "name" in data else (name or "sweep")

    if "base" not in data:
        raise SweepError("/base", "missing required key")
    try:
        out["base"] = validate_scenario(data["base"], name=f"{out['name']}-base")
    except ScenarioError as exc:
        pointer = "" if exc.path == "/" else exc.path
        raise SweepError(f"/base{pointer}", exc.reason) from None

    axes_in = data.get("axes", {})
    axes = _expect_mapping(axes_in, "/axes") if axes_in is not None else {}
    out_axes: Dict[str, List[Any]] = {}
    for key, values in axes.items():
        a_path = f"/axes/{key}"
        if not key or not isinstance(key, str):
            raise SweepError("/axes", f"axis paths must be non-empty strings, got {key!r}")
        if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
            raise SweepError(a_path, f"expected a list of values, got {_type_name(values)}")
        if len(values) == 0:
            raise SweepError(a_path, "an axis needs at least one value")
        out_axes[str(key)] = [copy.deepcopy(v) for v in values]
    out["axes"] = out_axes

    points_in = data.get("points", [])
    if points_in is None:
        points_in = []
    if not isinstance(points_in, Sequence) or isinstance(points_in, (str, bytes)):
        raise SweepError("/points", f"expected a list, got {_type_name(points_in)}")
    out_points: List[Dict[str, Any]] = []
    for i, overrides in enumerate(points_in):
        p_path = f"/points/{i}"
        overrides = _expect_mapping(overrides, p_path)
        if not overrides:
            raise SweepError(p_path, "an explicit point needs at least one override")
        out_points.append({str(k): copy.deepcopy(v) for k, v in overrides.items()})
    out["points"] = out_points

    if not out_axes and not out_points:
        raise SweepError("/axes", "a sweep needs at least one axis or explicit point")

    out["scheduler"] = _validate_scheduler(data.get("scheduler", {}), "/scheduler")
    return out


def _slug(value: Any) -> str:
    """A filesystem-safe token describing one override value."""
    if isinstance(value, Mapping):
        value = value.get("algorithm") or value.get("name") or "obj"
    elif isinstance(value, (list, tuple)):
        value = "x".join(str(v) for v in value[:3])
    elif isinstance(value, bool):
        value = "true" if value else "false"
    token = re.sub(r"[^A-Za-z0-9._-]+", "-", str(value)).strip("-.")
    return token or "v"


def point_id(index: int, overrides: Mapping[str, Any]) -> str:
    """Deterministic, human-readable, filesystem-safe id for a sweep point.

    The zero-padded index prefix guarantees uniqueness even when two points'
    override slugs collide (e.g. long values truncated at 72 characters).
    """
    parts = [f"{_slug(path.split('.')[-1])}-{_slug(value)}" for path, value in overrides.items()]
    label = "-".join(parts)[:72].rstrip("-.")
    return f"{index:03d}-{label}" if label else f"{index:03d}"


@dataclass
class SweepPoint:
    """One expanded point: its overrides and the resulting scenario.

    ``scenario`` is ``None`` (with ``error`` set) when the overrides produced
    an invalid scenario — recorded in the manifest as ``status: "invalid"``
    instead of poisoning the whole sweep.
    """

    index: int
    point_id: str
    overrides: Dict[str, Any]
    scenario: Optional[Scenario]
    error: Optional[str] = None


class SweepSpec:
    """A validated, normalized sweep spec (see :func:`validate_sweep`)."""

    def __init__(self, data: Mapping[str, Any], *, name: Optional[str] = None) -> None:
        self._data = validate_sweep(data, name=name)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, name: Optional[str] = None) -> "SweepSpec":
        """Validate a plain mapping into a sweep spec."""
        return cls(data, name=name)

    @classmethod
    def from_json(cls, text: str, *, name: Optional[str] = None) -> "SweepSpec":
        """Parse a JSON document into a sweep spec."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SweepError("/", f"invalid JSON: {exc}") from None
        return cls(data, name=name)

    @classmethod
    def from_toml(cls, text: str, *, name: Optional[str] = None) -> "SweepSpec":
        """Parse a TOML document into a sweep spec."""
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SweepError("/", f"invalid TOML: {exc}") from None
        return cls(data, name=name)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a sweep spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            return cls.from_toml(text, name=path.stem)
        return cls.from_json(text, name=path.stem)

    @staticmethod
    def coerce(value: Union["SweepSpec", Mapping[str, Any], str, Path]) -> "SweepSpec":
        """Accept a spec, a raw mapping, or a path to a spec file."""
        if isinstance(value, SweepSpec):
            return value
        if isinstance(value, (str, Path)):
            return SweepSpec.from_file(value)
        return SweepSpec.from_dict(value)

    # -- accessors ------------------------------------------------------------
    @property
    def name(self) -> str:
        """Sweep name (defaults to the source file stem)."""
        return self._data["name"]

    @property
    def base(self) -> Scenario:
        """The base scenario every point is derived from."""
        return Scenario.from_dict(self._data["base"])

    @property
    def axes(self) -> Dict[str, List[Any]]:
        """The cartesian axes (dotted path -> values, declaration order)."""
        return copy.deepcopy(self._data["axes"])

    @property
    def scheduler_spec(self) -> Dict[str, Any]:
        """The ``scheduler`` section with defaults materialized."""
        return copy.deepcopy(self._data["scheduler"])

    @property
    def n_points(self) -> int:
        """Number of points the spec expands into."""
        n = 1
        for values in self._data["axes"].values():
            n *= len(values)
        if not self._data["axes"]:
            n = 0
        return n + len(self._data["points"])

    # -- expansion ------------------------------------------------------------
    def expand(self, strict: bool = True) -> List[SweepPoint]:
        """Deterministically expand into the full point list.

        Cartesian axes first (declaration order, last axis fastest), then
        the explicit ``points``.  With ``strict=True`` an override set that
        fails scenario validation raises; otherwise the point is returned
        with ``scenario=None`` and the error message, so the sweep runner can
        record it and carry on (fault injection, CI failure drills).
        """
        base = self._data["base"]
        combos: List[Dict[str, Any]] = []
        axes = self._data["axes"]
        if axes:
            keys = list(axes)
            for values in itertools.product(*(axes[k] for k in keys)):
                combos.append(dict(zip(keys, values)))
        n_axis_combos = len(combos)
        combos.extend(dict(p) for p in self._data["points"])

        points: List[SweepPoint] = []
        for i, overrides in enumerate(combos):
            pid = point_id(i, overrides)
            data = copy.deepcopy(base)
            data["name"] = f"{self.name}-{pid}"
            try:
                for path, value in overrides.items():
                    set_by_path(data, path, value)
                scenario: Optional[Scenario] = Scenario.from_dict(data)
                error: Optional[str] = None
            except ScenarioError as exc:
                if strict:
                    # Attribute the failure to where the user wrote it: an
                    # axis-generated combo points at /axes, an explicit
                    # point at its own /points index.
                    pointer = (
                        "/axes" if i < n_axis_combos else f"/points/{i - n_axis_combos}"
                    )
                    raise SweepError(pointer, f"invalid point {pid!r}: {exc}") from None
                scenario, error = None, str(exc)
            points.append(SweepPoint(i, pid, dict(overrides), scenario, error))
        return points

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The normalized spec as a plain dict (deep copy)."""
        return copy.deepcopy(self._data)

    def to_json(self, indent: int = 2) -> str:
        """The normalized spec as a JSON document."""
        return json.dumps(self._data, indent=indent, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the normalized spec to ``path`` as JSON (atomically)."""
        return atomic_write_text(Path(path), self.to_json() + "\n")

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, SweepSpec):
            return self._data == other._data
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"SweepSpec(name={self.name!r}, n_points={self.n_points})"


def load_spec_file(path: Union[str, Path]) -> Union[Scenario, SweepSpec]:
    """Load either a scenario or a sweep spec, detected by shape.

    A document with a ``base`` or ``axes`` top-level key is a sweep spec;
    anything else is a plain scenario.  Used by ``python -m repro validate``
    so shipped sweep specs live next to scenarios under
    ``examples/scenarios/``.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            raw = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError("/", f"invalid TOML: {exc}") from None
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("/", f"invalid JSON: {exc}") from None
    if isinstance(raw, Mapping) and ("base" in raw or "axes" in raw):
        return SweepSpec.from_dict(raw, name=path.stem)
    return Scenario.from_dict(raw, name=path.stem)


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


@dataclass
class PointClaim:
    """A point a :class:`SweepWorker` holds the lease on, ready to run."""

    key: str
    scenario: Scenario
    run_dir: Path


@dataclass
class StudyOutcome:
    """What became of one point's study (always returned, never raised).

    ``status`` is ``"complete"``, ``"degraded"`` (the study finished but
    quarantined configurations carry penalty metrics — a usable, second-class
    result), or ``"failed"``.
    """

    key: str
    status: str  # "complete" | "degraded" | "failed"
    result: Optional[StudyResult] = None
    error: Optional[str] = None
    #: The run dir already held a finished run and was reloaded, not re-run.
    reused: bool = False


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`."""

    spec: SweepSpec
    sweep_dir: Path
    points: List[SweepPoint]
    outcomes: Dict[str, StudyOutcome]
    manifest: Dict[str, Any]
    comparison: Dict[str, Any]

    @property
    def status(self) -> str:
        """``"complete"`` when every point finished cleanly, ``"degraded"``
        when every point finished but some hold quarantined evaluations,
        else ``"partial"``."""
        return self.manifest["status"]

    @property
    def n_failed(self) -> int:
        """Points that failed at runtime or were invalid at expansion."""
        return sum(1 for p in self.manifest["points"] if p["status"] in ("failed", "invalid"))

    def result_for(self, point_id: str) -> Optional[StudyResult]:
        """The :class:`StudyResult` of one completed point (``None`` if not)."""
        outcome = self.outcomes.get(point_id)
        return outcome.result if outcome is not None else None


def _overall_status(entries: Sequence[Mapping[str, Any]]) -> str:
    """Aggregate point statuses: complete < degraded < partial.

    ``"degraded"`` means every point *finished* but some carry quarantined
    (penalty-metric) evaluations — usable artifacts, second-class results.
    """
    statuses = {e["status"] for e in entries}
    if statuses <= {"complete"}:
        return "complete"
    if statuses <= {"complete", "degraded"}:
        return "degraded"
    return "partial"


def _manifest_entries(points: Sequence[SweepPoint]) -> List[Dict[str, Any]]:
    return [
        {
            "point_id": p.point_id,
            "overrides": copy.deepcopy(p.overrides),
            "run_dir": f"{POINTS_DIR}/{p.point_id}",
            "status": "invalid" if p.error is not None else "pending",
            "error": p.error,
        }
        for p in points
    ]


def _write_manifest(
    sweep_path: Path, spec: SweepSpec, entries: Sequence[Mapping[str, Any]], status: str
) -> Dict[str, Any]:
    n_complete = sum(1 for e in entries if e["status"] == "complete")
    n_failed = sum(1 for e in entries if e["status"] in ("failed", "invalid"))
    manifest = {
        "sweep_dir_version": SWEEP_DIR_VERSION,
        "name": spec.name,
        "status": status,
        "n_points": len(entries),
        "n_complete": n_complete,
        "n_failed": n_failed,
        "spec": spec.to_dict(),
        "points": [dict(e) for e in entries],
    }
    sweep_path.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        sweep_path / SWEEP_FILE, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def load_manifest(sweep_dir: Union[str, Path]) -> Dict[str, Any]:
    """Read and version-check a sweep directory's ``sweep.json``."""
    path = Path(sweep_dir) / SWEEP_FILE
    if not path.exists():
        raise FileNotFoundError(f"{sweep_dir} is not a sweep directory (no {SWEEP_FILE})")
    manifest = json.loads(path.read_text())
    version = int(manifest.get("sweep_dir_version", -1))
    if version != SWEEP_DIR_VERSION:
        raise ValueError(
            f"unsupported sweep-dir version {version} in {sweep_dir} "
            f"(this build understands {SWEEP_DIR_VERSION})"
        )
    return manifest


# ---------------------------------------------------------------------------
# Lease-backed multi-worker draining
# ---------------------------------------------------------------------------


def sweep_lock(sweep_dir: Union[str, Path]) -> FileLock:
    """The advisory lock serializing manifest RMW + lease ops for one sweep."""
    return FileLock(Path(sweep_dir) / SWEEP_LOCK_FILE)


def point_scenario(
    spec: SweepSpec, point_id: str, overrides: Mapping[str, Any]
) -> Optional[Scenario]:
    """Rebuild one point's scenario from its manifest entry.

    Workers derive scenarios from the *entries* — ``(point_id, overrides)``
    pairs — not by re-expanding ``spec.axes``: the manifest is serialized
    with sorted keys, which reorders the axes dict, and expansion order
    (hence point ids) must never depend on that.  Returns ``None`` when the
    overrides no longer produce a valid scenario.
    """
    data = copy.deepcopy(spec.to_dict()["base"])
    data["name"] = f"{spec.name}-{point_id}"
    try:
        for path, value in overrides.items():
            set_by_path(data, path, value)
        return Scenario.from_dict(data)
    except ScenarioError:
        return None


def prepare_sweep_dir(
    spec: Union[SweepSpec, Mapping[str, Any], str, Path],
    sweep_dir: Union[str, Path],
    *,
    resume: bool = False,
    force: bool = False,
    lock: Optional[FileLock] = None,
) -> Dict[str, Any]:
    """Create — or join — a sweep directory's durable manifest.

    Idempotent under the sweep lock, so N workers racing at startup are
    safe: the first writes the ``pending`` manifest, the rest verify their
    spec matches (same expansion) and join without clobbering progress.

    ``resume`` re-opens every settled point whose run dir is not
    ``complete``/``degraded`` (failed, deleted, or damaged after the fact):
    it goes back to ``pending`` and keeps its generation as the fencing
    floor, so the next claim retries it from its run dir.  ``force``
    removes the previous sweep's ``points/`` and ``leases/`` and writes a
    fresh manifest.
    """
    spec = SweepSpec.coerce(spec)
    sweep_path = Path(sweep_dir)
    sweep_path.mkdir(parents=True, exist_ok=True)
    lock = sweep_lock(sweep_path) if lock is None else lock
    with lock:
        if (sweep_path / SWEEP_FILE).exists() and not force:
            existing = load_manifest(sweep_path)
            if not resume:
                raise SweepError(
                    "/",
                    f"{sweep_path} already holds a sweep (pass force=True to overwrite, "
                    "or resume=True to continue it)",
                )
            if SweepSpec.from_dict(existing["spec"]) != spec:
                raise SweepError(
                    "/",
                    f"sweep spec does not match the manifest in {sweep_path} "
                    "(expansion would differ); refusing to resume",
                )
            entries = existing["points"]
            reopened = [
                e
                for e in entries
                if e["status"] in ("complete", "degraded", "failed")
                and run_status(sweep_path / e["run_dir"]) not in ("complete", "degraded")
            ]
            if not reopened:
                return existing
            for entry in reopened:
                entry["status"] = "pending"
                entry["error"] = None
            return _write_manifest(sweep_path, spec, entries, status="running")
        if force:
            for name in (POINTS_DIR, LEASES_DIR):
                shutil.rmtree(sweep_path / name, ignore_errors=True)
        entries = _manifest_entries(spec.expand(strict=False))
        return _write_manifest(sweep_path, spec, entries, status="running")


def _settle_point_locked(
    sweep_path: Path,
    point_id: str,
    status: str,
    *,
    generation: int,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    manifest = load_manifest(sweep_path)
    spec = SweepSpec.from_dict(manifest["spec"])
    entries = manifest["points"]
    for entry in entries:
        if entry["point_id"] == point_id:
            break
    else:
        raise SweepError("/points", f"no point {point_id!r} in the manifest of {sweep_path}")
    recorded = int(entry.get("generation", 0))
    if int(generation) < recorded:
        raise StaleLeaseError(
            f"settle of {point_id!r} at generation {generation} rejected: the manifest "
            f"records generation {recorded} (the point was taken over; that result stands)"
        )
    entry["status"] = status
    entry["error"] = error
    entry["generation"] = int(generation)
    _write_manifest(sweep_path, spec, entries, status=manifest["status"])
    return dict(entry)


def settle_point(
    sweep_dir: Union[str, Path],
    point_id: str,
    status: str,
    *,
    generation: int,
    error: Optional[str] = None,
    lock: Optional[FileLock] = None,
) -> Dict[str, Any]:
    """Record a point's terminal status in the manifest, fenced by generation.

    The generation is the fencing token from the writer's lease at claim
    time.  A settle carrying a generation *older* than the one the manifest
    records raises :class:`~repro.core.leases.StaleLeaseError` and leaves the
    manifest untouched — the classic zombie-writer scenario (paused, presumed
    dead, taken over, resumed) cannot clobber its successor's result.
    """
    sweep_path = Path(sweep_dir)
    lock = sweep_lock(sweep_path) if lock is None else lock
    with lock:
        return _settle_point_locked(
            sweep_path, point_id, status, generation=generation, error=error
        )


class SweepWorker:
    """One process draining a lease-coordinated sweep directory.

    Start N of these (``python -m repro sweep-worker SWEEP_DIR`` — processes
    today, hosts sharing a filesystem tomorrow; :func:`run_sweep` is one
    in-process) against one prepared sweep dir (:func:`prepare_sweep_dir`);
    they claim points in manifest order via durable leases,
    run each as an ordinary PR-4 study (so per-point artifacts stay
    bit-identical to a single-worker run), settle results into the manifest
    under the fencing generation, and whoever settles last finalizes the
    sweep status and comparison report.

    A heartbeat thread refreshes held leases every ``ttl_s / 3``; a worker
    that dies stops heartbeating, its leases expire, and survivors take the
    points over (resuming from the run dir's checkpoint).  ``clock`` is
    injectable so tests expire leases without waiting.  ``max_concurrent``
    overrides the spec's ``scheduler.max_concurrent_studies``; the rest of
    that section (``worker_budget``, ``study_max_retries``,
    ``retry_backoff_s``) is read from the spec.
    """

    def __init__(
        self,
        sweep_dir: Union[str, Path],
        *,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.time,
        evaluate=None,
        runner=None,
        max_concurrent: Optional[int] = None,
        heartbeat: bool = True,
        hold_after_claim: float = 0.0,
    ) -> None:
        self.sweep_path = Path(sweep_dir)
        manifest = load_manifest(self.sweep_path)
        self.spec = SweepSpec.from_dict(manifest["spec"])
        self.lock = sweep_lock(self.sweep_path)
        self.ttl_s = float(ttl_s)
        self.clock = clock
        self.leases = LeaseStore(
            self.sweep_path / LEASES_DIR, owner=owner, ttl_s=ttl_s, clock=clock, lock=self.lock
        )
        self._evaluate = evaluate
        self._runner = runner
        self.heartbeat_enabled = bool(heartbeat)
        self.hold_after_claim = float(hold_after_claim)
        # Scenarios come from the manifest entries, the durable source of
        # truth (see point_scenario) — never from re-expanding the axes.
        self._scenarios_by_id: Dict[str, Optional[Scenario]] = {
            e["point_id"]: point_scenario(self.spec, e["point_id"], e["overrides"])
            for e in manifest["points"]
        }
        scheduler_spec = self.spec.scheduler_spec
        if max_concurrent is None:
            max_concurrent = scheduler_spec["max_concurrent_studies"]
        if int(max_concurrent) < 1:
            raise ValueError("max_concurrent_studies must be >= 1")
        self.max_concurrent = int(max_concurrent)
        budget = scheduler_spec["worker_budget"]
        # Each slot's fair share of the worker budget (None = each scenario's
        # own executor.n_workers); histories are the same either way.
        self.n_workers = None if budget is None else max(1, budget // self.max_concurrent)
        self.study_max_retries = scheduler_spec.get("study_max_retries", 0)
        self.retry_backoff_s = scheduler_spec.get("retry_backoff_s", 0.0)
        self._held: Dict[str, Lease] = {}
        self._held_mutex = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self.fenced_points: List[str] = []

    @property
    def owner(self) -> str:
        """This worker's lease owner id."""
        return self.leases.owner

    # -- claiming ---------------------------------------------------------------
    def claim_next(self) -> Union[PointClaim, float, None]:
        """Claim the first runnable point of the manifest.

        Returns a :class:`PointClaim` when a point was claimed (its lease is
        now held and recorded in the manifest), a ``float`` — seconds until
        the earliest live lease *could* expire — when every remaining point
        is leased by live workers, or ``None`` when every point is terminal
        (the sweep is drained).
        """
        with self.lock:
            manifest = load_manifest(self.sweep_path)
            entries = manifest["points"]
            wait: Optional[float] = None
            now = self.clock()
            for entry in entries:
                if entry["status"] in TERMINAL_STATUSES:
                    continue
                pid = entry["point_id"]
                scenario = self._scenarios_by_id.get(pid)
                if scenario is None:
                    continue
                floor = int(entry.get("generation", 0))
                lease = self.leases.acquire_locked(pid, generation_floor=floor)
                if lease is None:
                    holder = self.leases.peek(pid)
                    remaining = (
                        _CLAIM_POLL_S
                        if holder is None
                        else max(holder.ttl_s - (now - holder.heartbeat_at), _CLAIM_POLL_S)
                    )
                    wait = remaining if wait is None else min(wait, remaining)
                    continue
                entry["status"] = "running"
                entry["owner"] = lease.owner
                entry["generation"] = lease.generation
                _write_manifest(self.sweep_path, self.spec, entries, status=manifest["status"])
                with self._held_mutex:
                    self._held[pid] = lease
                return PointClaim(pid, scenario, self.sweep_path / POINTS_DIR / pid)
            return wait

    # -- running ----------------------------------------------------------------
    def run_point(self, claim: PointClaim) -> StudyOutcome:
        """Run one claimed point crash-isolated: never raises.

        Every attempt goes through :func:`~repro.core.study.run_in_dir`, so
        takeover is deterministic — a fresh dir runs fresh, a dead owner's
        partial dir continues from its checkpoint, a finished one is
        reloaded — and bit-identical either way.  A study that raises is
        retried ``study_max_retries`` times, ``retry_backoff_s * 2**k``
        seconds apart; a retry resumes, so only the missing evaluations
        re-run.  Degraded studies finished and are not retried (the fault
        trace is deterministic: a re-run would quarantine the same
        configurations).
        """
        error = "unknown error"
        for attempt in range(self.study_max_retries + 1):
            if attempt > 0 and self.retry_backoff_s > 0:
                time.sleep(self.retry_backoff_s * 2 ** (attempt - 1))
            try:
                result, reused = run_in_dir(
                    claim.scenario,
                    claim.run_dir,
                    evaluate=self._evaluate,
                    runner=self._runner,
                    n_workers=self.n_workers,
                )
            except Exception as exc:  # noqa: BLE001 — one failed point never stops the sweep
                error = f"{type(exc).__name__}: {exc}"
                continue
            status = "degraded" if result.is_degraded else "complete"
            return StudyOutcome(claim.key, status, result=result, reused=reused)
        return StudyOutcome(claim.key, "failed", error=error)

    # -- settling ---------------------------------------------------------------
    def settle(self, outcome: StudyOutcome) -> bool:
        """Record one outcome under its lease's generation, then release.

        Returns ``False`` (and keeps the manifest untouched) when this
        worker was fenced — its lease on the point was taken over while the
        study ran, so the successor's result stands.
        """
        pid = outcome.key
        with self._held_mutex:
            lease = self._held.pop(pid, None)
        if lease is None:
            self.fenced_points.append(pid)
            return False
        with self.lock:
            try:
                _settle_point_locked(
                    self.sweep_path,
                    pid,
                    outcome.status,
                    generation=lease.generation,
                    error=outcome.error,
                )
                self.leases.release_locked(lease)
            except StaleLeaseError:
                self.fenced_points.append(pid)
                return False
        return True

    # -- heartbeats -------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        interval = max(self.ttl_s / 3.0, 0.05)
        while not self._stop_heartbeat.wait(interval):
            with self._held_mutex:
                held = list(self._held.items())
            for pid, lease in held:
                try:
                    refreshed = self.leases.heartbeat(lease)
                except StaleLeaseError:
                    # Fenced while running: drop the lease so settle() skips.
                    with self._held_mutex:
                        if self._held.get(pid) is lease:
                            del self._held[pid]
                else:
                    with self._held_mutex:
                        if self._held.get(pid) is lease:
                            self._held[pid] = refreshed

    def _start_heartbeat(self) -> None:
        if not self.heartbeat_enabled or self._heartbeat_thread is not None:
            return
        self._stop_heartbeat.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="sweep-lease-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def _stop_heartbeat_thread(self) -> None:
        if self._heartbeat_thread is None:
            return
        self._stop_heartbeat.set()
        self._heartbeat_thread.join()
        self._heartbeat_thread = None

    # -- draining ---------------------------------------------------------------
    def run(
        self,
        *,
        max_points: Optional[int] = None,
        on_claim: Optional[Callable[[PointClaim], None]] = None,
        on_outcome: Optional[Callable[[StudyOutcome], None]] = None,
    ) -> List[StudyOutcome]:
        """Drain claimable points until the sweep is terminal.

        Keeps up to ``max_concurrent`` claimed points running on a thread
        pool, claims another whenever a slot is free, and settles each
        outcome into the manifest (under its lease's fencing generation)
        before its next claim.  When every remaining point is leased by a
        live sibling it waits for the earliest lease to expire.
        ``max_points`` bounds how many points *this* worker claims (tests
        use 1 to interleave workers).  Outcomes are returned in completion
        order and are this worker's own; points other workers ran are
        settled by them.  Finalization (terminal sweep status + comparison
        report) is left to :meth:`finalize` so callers control when it
        happens.
        """
        self._start_heartbeat()
        outcomes: List[StudyOutcome] = []
        n_claimed = 0
        exhausted = False
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=self.max_concurrent) as pool:
                running: set = set()
                while True:
                    delay: Optional[float] = None
                    while (
                        not exhausted
                        and len(running) < self.max_concurrent
                        and (max_points is None or n_claimed < max_points)
                    ):
                        claim = self.claim_next()
                        if claim is None:
                            exhausted = True
                        elif isinstance(claim, PointClaim):
                            n_claimed += 1
                            if on_claim is not None:
                                on_claim(claim)
                            if self.hold_after_claim > 0:
                                # Deterministic kill window for crash drills: hold
                                # the claim before starting the study.
                                time.sleep(self.hold_after_claim)
                            running.add(pool.submit(self.run_point, claim))
                        else:
                            delay = claim
                            break
                    if not running:
                        if exhausted or (max_points is not None and n_claimed >= max_points):
                            break
                        time.sleep(delay)
                        continue
                    done, running = concurrent.futures.wait(
                        running, timeout=delay, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for future in done:
                        outcome = future.result()  # run_point never raises
                        self.settle(outcome)
                        outcomes.append(outcome)
                        if on_outcome is not None:
                            on_outcome(outcome)
        finally:
            self._stop_heartbeat_thread()
            self._release_held()
        return outcomes

    def _release_held(self) -> None:
        """Release any leases still held (error paths), so siblings need not
        wait for expiry."""
        with self._held_mutex:
            held, self._held = dict(self._held), {}
        for lease in held.values():
            try:
                self.leases.release(lease)
            except StaleLeaseError:
                pass

    def finalize(self) -> Dict[str, Any]:
        """Write the terminal sweep status + comparison once fully drained.

        Idempotent and safe to call from every worker: the status aggregation
        and comparison are pure functions of the (now terminal) manifest and
        run dirs, so concurrent finalizers write identical bytes.  Returns
        the manifest (still ``"running"`` if points remain).
        """
        with self.lock:
            manifest = load_manifest(self.sweep_path)
            entries = manifest["points"]
            if any(e["status"] not in TERMINAL_STATUSES for e in entries):
                return manifest
            manifest = _write_manifest(
                self.sweep_path, self.spec, entries, status=_overall_status(entries)
            )
        build_comparison(self.sweep_path)
        return manifest


def run_sweep(
    spec: Union[SweepSpec, Mapping[str, Any], str, Path],
    sweep_dir: Union[str, Path],
    *,
    evaluate=None,
    runner=None,
    max_concurrent: Optional[int] = None,
    resume: bool = False,
    force: bool = False,
    owner: Optional[str] = None,
) -> SweepResult:
    """Expand a sweep spec and drain every point as one in-process worker.

    :func:`prepare_sweep_dir`, one :class:`SweepWorker`, then
    :meth:`SweepWorker.finalize` — the protocol ``python -m repro
    sweep-worker`` speaks, so other worker processes may join the same
    directory while it runs.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec`, raw mapping, or path to a spec file.
    sweep_dir:
        The sweep directory (created).  An existing ``sweep.json`` is
        refused unless ``resume`` or ``force`` is set.
    evaluate / runner:
        Host bindings applied to *every* point (a shared runner lets all
        device points reuse one simulation cache, as accuracy is
        device-independent).
    max_concurrent:
        Overrides the spec's ``scheduler.max_concurrent_studies``.
    resume / force:
        See :func:`prepare_sweep_dir`.  The spec must match the manifest's.
        Finished points this call did not run come back as ``reused``
        outcomes.
    owner:
        This worker's lease owner id (default ``host:pid:nonce``).
    """
    spec = SweepSpec.coerce(spec)
    sweep_path = Path(sweep_dir)
    prepare_sweep_dir(spec, sweep_path, resume=resume, force=force)
    worker = SweepWorker(
        sweep_path,
        owner=owner,
        evaluate=evaluate,
        runner=runner,
        max_concurrent=max_concurrent,
    )
    ran = {o.key: o for o in worker.run()}
    manifest = worker.finalize()
    outcomes: Dict[str, StudyOutcome] = {}
    for entry in manifest["points"]:
        pid = entry["point_id"]
        if pid in ran:
            outcomes[pid] = ran[pid]
        elif entry["status"] in ("complete", "degraded"):
            outcomes[pid] = StudyOutcome(
                key=pid,
                status=entry["status"],
                result=StudyResult.load(sweep_path / entry["run_dir"]),
                reused=True,
            )
    return SweepResult(
        spec=spec,
        sweep_dir=sweep_path,
        points=spec.expand(strict=False),
        outcomes=outcomes,
        manifest=manifest,
        comparison=build_comparison(sweep_path, write=False),
    )


# ---------------------------------------------------------------------------
# Cross-run comparison report
# ---------------------------------------------------------------------------


def build_comparison(sweep_dir: Union[str, Path], write: bool = True) -> Dict[str, Any]:
    """Aggregate every completed point into a cross-run comparison report.

    Derived entirely from the persisted artifacts (manifest + per-point run
    dirs), so it can be recomputed at any time (``python -m repro
    sweep-report``).  For 2-objective sweeps a *shared* canonical reference
    point (worst observed corner across all fronts, scaled like the engine's)
    makes hypervolumes and budget-to-quality curves comparable across points.
    """
    sweep_path = Path(sweep_dir)
    manifest = load_manifest(sweep_path)

    loaded: Dict[str, StudyResult] = {}
    entries: List[Dict[str, Any]] = []
    for point in manifest["points"]:
        entry = {
            "point_id": point["point_id"],
            "run_dir": point["run_dir"],
            "overrides": point["overrides"],
            "status": point["status"],
            "error": point.get("error"),
        }
        if point["status"] in ("complete", "degraded"):
            # Degraded points finished with complete artifacts; their
            # quarantined records carry penalty metrics and are infeasible by
            # construction, so they load and compare like any other point.
            try:
                loaded[point["point_id"]] = StudyResult.load(sweep_path / point["run_dir"])
            except (OSError, ValueError, ScenarioError) as exc:
                entry["status"] = "unreadable"
                entry["error"] = f"{type(exc).__name__}: {exc}"
        entries.append(entry)

    # Shared canonical reference across the union of all final fronts.
    reference: Optional[List[float]] = None
    fronts: Dict[str, np.ndarray] = {}
    for pid, result in loaded.items():
        if len(result.objectives) == 2 and result.pareto:
            fronts[pid] = result.objectives.to_canonical(result.pareto_matrix())
    if fronts:
        stacked = np.vstack(list(fronts.values()))
        worst = stacked.max(axis=0)
        # Slightly *worse* than the worst observed canonical value in each
        # dimension.  Canonical values of maximized objectives are negative,
        # so the nudge must be sign-aware (+10% of the magnitude), not a
        # plain scale — `worst * 1.1` would land on the better side of a
        # negative worst and zero those points' hypervolume out.
        reference = [float(x) for x in worst + 0.1 * np.abs(worst) + 1e-9]

    objective_names: List[str] = []
    for entry in entries:
        result = loaded.get(entry["point_id"])
        if result is None:
            continue
        if not objective_names:
            objective_names = list(result.objectives.names)
        # One parse per point: quality_curve reuses this history below
        # instead of re-reading history.jsonl.
        history = result.persisted_history()
        pareto = apply_constraints(result.scenario, history.pareto_records(feasible_only=True))
        best: Dict[str, Optional[float]] = {}
        for objective in result.objectives:
            record = (
                min(pareto, key=lambda r: objective.canonical(float(r.metrics[objective.name])))
                if pareto
                else None
            )
            best[objective.name] = (
                None if record is None else float(record.metrics[objective.name])
            )
        entry.update(
            {
                "scenario": result.scenario.name,
                "algorithm": result.scenario.search_spec["algorithm"],
                "seed": result.scenario.seed,
                "n_evaluations": len(history),
                "n_feasible": history.n_feasible(),
                "n_pareto": len(pareto),
                "best": best,
                "front": [
                    [float(v) for v in r.objective_values(result.objectives)] for r in pareto
                ],
            }
        )
        faults = summarize_faults(history.records)
        if faults["n_affected"]:
            entry["faults"] = faults
        if reference is not None and len(result.objectives) == 2:
            front = fronts.get(entry["point_id"])
            entry["hypervolume"] = (
                float(hypervolume_2d(front, reference)) if front is not None else 0.0
            )
            entry["quality_curve"] = result.quality_curve(reference, history=history)
        else:
            entry["hypervolume"] = None
            entry["quality_curve"] = []

    ranked = [e for e in entries if e.get("hypervolume") is not None]
    ranked.sort(key=lambda e: (-e["hypervolume"], e["point_id"]))
    # Status and counters reflect what the report could actually read, not
    # what the manifest last recorded: a point downgraded to "unreadable"
    # (artifacts deleted/corrupted after the sweep) makes the report partial.
    n_complete = sum(1 for e in entries if e["status"] == "complete")
    n_failed = sum(1 for e in entries if e["status"] in ("failed", "invalid", "unreadable"))
    comparison = {
        "sweep": manifest["name"],
        "sweep_dir_version": SWEEP_DIR_VERSION,
        "status": _overall_status(entries),
        "n_points": len(entries),
        "n_complete": n_complete,
        "n_failed": n_failed,
        "objectives": objective_names,
        "reference": reference,
        "points": entries,
        "ranking": [e["point_id"] for e in ranked],
    }
    if write:
        atomic_write_text(
            sweep_path / COMPARISON_FILE, json.dumps(comparison, indent=2, sort_keys=True) + "\n"
        )
        atomic_write_text(sweep_path / COMPARISON_MD_FILE, format_comparison_md(comparison))
    return comparison


def format_comparison_md(comparison: Mapping[str, Any]) -> str:
    """The comparison report as a Markdown document (``comparison.md``)."""
    objectives = comparison.get("objectives") or []
    n_degraded = sum(1 for e in comparison["points"] if e["status"] == "degraded")
    lines = [
        f"# Sweep `{comparison['sweep']}` — {comparison['status']}",
        "",
        f"{comparison['n_complete']}/{comparison['n_points']} points complete"
        + (f", {n_degraded} degraded" if n_degraded else "")
        + (f", {comparison['n_failed']} failed/invalid" if comparison["n_failed"] else "")
        + ".",
        "",
    ]
    headers = ["point", "status", "evals", "feasible", "pareto", "hypervolume"] + [
        f"best {name}" for name in objectives
    ]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "---|" * len(headers))
    for entry in comparison["points"]:
        hv = entry.get("hypervolume")
        best = entry.get("best", {})
        row = [
            f"`{entry['point_id']}`",
            entry["status"],
            str(entry.get("n_evaluations", "—")),
            str(entry.get("n_feasible", "—")),
            str(entry.get("n_pareto", "—")),
            "—" if hv is None else f"{hv:.6g}",
        ] + [
            "—" if best.get(name) is None else f"{best[name]:.6g}" for name in objectives
        ]
        lines.append("| " + " | ".join(row) + " |")
    failed = [e for e in comparison["points"] if e["status"] in ("failed", "invalid", "unreadable")]
    if failed:
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        for entry in failed:
            lines.append(f"* `{entry['point_id']}` ({entry['status']}): {entry.get('error')}")
    if comparison.get("ranking"):
        lines.append("")
        lines.append(
            "Ranking by hypervolume: " + ", ".join(f"`{p}`" for p in comparison["ranking"])
        )
    return "\n".join(lines) + "\n"


__all__ = [
    "SWEEP_VERSION",
    "SWEEP_DIR_VERSION",
    "SWEEP_FILE",
    "COMPARISON_FILE",
    "COMPARISON_MD_FILE",
    "POINTS_DIR",
    "SweepError",
    "validate_sweep",
    "point_id",
    "SweepPoint",
    "SweepSpec",
    "SweepResult",
    "PointClaim",
    "StudyOutcome",
    "load_spec_file",
    "load_manifest",
    "run_sweep",
    "build_comparison",
    "format_comparison_md",
    "LEASES_DIR",
    "SWEEP_LOCK_FILE",
    "TERMINAL_STATUSES",
    "sweep_lock",
    "point_scenario",
    "prepare_sweep_dir",
    "settle_point",
    "SweepWorker",
]
