"""Evaluation history: every configuration run, its metrics, and its provenance.

The history is the single source of truth from which Pareto fronts, validity
counts (the paper's "configurations with a max ATE smaller than 5 cm"), and
speedup tables are derived.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.durable import fsync_dir
from repro.core.objectives import ObjectiveSet
from repro.core.pareto import pareto_mask
from repro.core.space import Configuration, DesignSpace
from repro.utils.serialization import to_jsonable


@dataclass(frozen=True)
class EvaluationRecord:
    """A single evaluated configuration.

    Attributes
    ----------
    config:
        The evaluated configuration.
    metrics:
        All metric values returned by the evaluator (objectives + extras).
    source:
        Provenance label: ``"random"``, ``"active_learning"``, ``"default"``,
        ``"grid"``, ...
    iteration:
        Active-learning iteration index (0 for the bootstrap random phase).
    attempts:
        Structured fault metadata (see :mod:`repro.core.faults`): one entry
        per failed attempt, ``None`` for a clean first-try success — so
        fault-free histories serialize byte-identically to earlier versions.
    timing:
        Optional per-iteration wall-clock counters in milliseconds (surrogate
        fit, pool prediction, bitset kernel, training-row encode) attached by
        the search driver when ``REPRO_RECORD_TIMING`` is set.  ``None`` (the
        default) keeps artifacts byte-identical to the pre-timing format.
    """

    config: Configuration
    metrics: Dict[str, float]
    source: str = "random"
    iteration: int = 0
    attempts: Optional[List[Dict[str, Any]]] = None
    timing: Optional[Dict[str, float]] = None

    def objective_values(self, objectives: ObjectiveSet) -> Tuple[float, ...]:
        """Objective values in declaration order (natural units)."""
        return tuple(float(self.metrics[o.name]) for o in objectives)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict representation (for JSON serialization).

        ``attempts`` is emitted only when present, keeping fault-free
        artifacts byte-identical to the pre-fault-tolerance format.
        """
        out = {
            "config": self.config.to_dict(),
            "metrics": dict(self.metrics),
            "source": self.source,
            "iteration": self.iteration,
        }
        if self.attempts is not None:
            out["attempts"] = [dict(a) for a in self.attempts]
        if self.timing is not None:
            out["timing"] = dict(self.timing)
        return out


def config_from_dict(space: Optional[DesignSpace], d: Mapping[str, Any]) -> Configuration:
    """Revive a persisted configuration, normalized to the ``space``'s
    canonical types (JSON loses e.g. the int/float distinction).  Without a
    space, or for values outside its domains (a warm start from another
    space variant), the configuration is raw and unvalidated."""
    if space is not None:
        try:
            return space.configuration(d)
        except (KeyError, ValueError):
            pass
    return Configuration.from_dict(d)


class History:
    """Ordered collection of :class:`EvaluationRecord` with analysis helpers."""

    def __init__(self, objectives: ObjectiveSet, records: Optional[Iterable[EvaluationRecord]] = None) -> None:
        self.objectives = objectives
        self._records: List[EvaluationRecord] = list(records) if records is not None else []

    # -- mutation ------------------------------------------------------------
    def add(
        self,
        config: Configuration,
        metrics: Mapping[str, float],
        source: str = "random",
        iteration: int = 0,
        attempts: Optional[Sequence[Mapping[str, Any]]] = None,
        timing: Optional[Mapping[str, float]] = None,
    ) -> EvaluationRecord:
        """Append a record and return it."""
        record = EvaluationRecord(
            config=config,
            metrics={str(k): float(v) for k, v in metrics.items()},
            source=source,
            iteration=iteration,
            attempts=None if attempts is None else [dict(a) for a in attempts],
            timing=None if timing is None else {str(k): float(v) for k, v in timing.items()},
        )
        self._records.append(record)
        return record

    # -- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EvaluationRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> EvaluationRecord:
        return self._records[idx]

    @property
    def records(self) -> List[EvaluationRecord]:
        """All records in insertion order."""
        return list(self._records)

    @property
    def configurations(self) -> List[Configuration]:
        """Evaluated configurations in insertion order."""
        return [r.config for r in self._records]

    def configuration_set(self) -> set:
        """Set of distinct evaluated configurations."""
        return {r.config for r in self._records}

    def filter(self, source: Optional[str] = None, max_iteration: Optional[int] = None) -> "History":
        """A new history restricted to the given provenance / iteration range."""
        records = [
            r
            for r in self._records
            if (source is None or r.source == source)
            and (max_iteration is None or r.iteration <= max_iteration)
        ]
        return History(self.objectives, records)

    # -- matrices & fronts ------------------------------------------------------
    def objective_matrix(self, canonical: bool = False) -> np.ndarray:
        """``(n, m)`` matrix of objective values (optionally minimization-form)."""
        if not self._records:
            return np.empty((0, len(self.objectives)))
        values = np.array([r.objective_values(self.objectives) for r in self._records], dtype=np.float64)
        return self.objectives.to_canonical(values) if canonical else values

    def feasible_mask(self) -> np.ndarray:
        """Mask of records satisfying every objective limit (e.g. ATE < 5 cm)."""
        return self.objectives.feasibility_mask(self.objective_matrix())

    def n_feasible(self) -> int:
        """Number of feasible ("valid") records."""
        return int(self.feasible_mask().sum())

    def pareto_records(self, feasible_only: bool = True) -> List[EvaluationRecord]:
        """Records lying on the Pareto front of the history."""
        if not self._records:
            return []
        values = self.objective_matrix(canonical=True)
        candidates = np.arange(len(self._records))
        if feasible_only:
            feas = self.feasible_mask()
            if np.any(feas):
                candidates = np.flatnonzero(feas)
                values = values[candidates]
            # If nothing is feasible fall back to the unconstrained front.
        mask = pareto_mask(values)
        idx = candidates[np.flatnonzero(mask)]
        records = [self._records[i] for i in idx]
        # Sort by the first objective for stable reporting.
        records.sort(key=lambda r: r.objective_values(self.objectives))
        return records

    def pareto_matrix(self, feasible_only: bool = True) -> np.ndarray:
        """Objective matrix (natural units) of the Pareto-front records."""
        records = self.pareto_records(feasible_only=feasible_only)
        if not records:
            return np.empty((0, len(self.objectives)))
        return np.array([r.objective_values(self.objectives) for r in records], dtype=np.float64)

    def best_by(self, objective_name: str, feasible_only: bool = True) -> Optional[EvaluationRecord]:
        """The record optimizing a single objective (respecting feasibility)."""
        if not self._records:
            return None
        obj = self.objectives[objective_name]
        records = self._records
        if feasible_only:
            mask = self.feasible_mask()
            feas_records = [r for r, ok in zip(self._records, mask) if ok]
            if feas_records:
                records = feas_records
        key = lambda r: obj.canonical(float(r.metrics[objective_name]))
        return min(records, key=key)

    # -- serialization -----------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready list of record dictionaries."""
        return [r.to_dict() for r in self._records]

    @classmethod
    def from_dicts(
        cls,
        objectives: ObjectiveSet,
        dicts: Sequence[Mapping[str, Any]],
        space: Optional["DesignSpace"] = None,
    ) -> "History":
        """Inverse of :meth:`to_dicts` (configurations revived by
        :func:`config_from_dict`)."""
        records = []
        for d in dicts:
            attempts = d.get("attempts")
            timing = d.get("timing")
            records.append(
                EvaluationRecord(
                    config=config_from_dict(space, d["config"]),
                    metrics={str(k): float(v) for k, v in d["metrics"].items()},
                    source=str(d.get("source", "random")),
                    iteration=int(d.get("iteration", 0)),
                    attempts=None if not attempts else [dict(a) for a in attempts],
                    timing=None if not timing else {str(k): float(v) for k, v in timing.items()},
                )
            )
        return cls(objectives, records)

    def summary(self) -> Dict[str, Any]:
        """Compact summary used by experiment reports."""
        pareto = self.pareto_records()
        per_source: Dict[str, int] = {}
        for r in self._records:
            per_source[r.source] = per_source.get(r.source, 0) + 1
        return {
            "n_evaluations": len(self._records),
            "n_feasible": self.n_feasible(),
            "n_pareto": len(pareto),
            "per_source": per_source,
        }


class HistoryWriter:
    """Append-only JSONL stream of a run's evaluation records (``history.jsonl``).

    Every record is written as one newline-terminated line and flushed
    immediately, so a SIGKILL at any instruction leaves the file ending at an
    evaluation boundary — except possibly a torn final line, which the
    readers (:func:`repro.core.durable.scan_jsonl`) drop and a resume cuts
    off.  The writer counts the lines it holds and keeps a running sha256 of
    their bytes, so a checkpoint names the file's current prefix without
    re-reading it.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.n_records = 0
        self._digest = hashlib.sha256()
        self._fh = None
        self._dir_synced = False

    def open(self, prefix: bytes = b"", n_records: int = 0, *, in_place: bool = False) -> "HistoryWriter":
        """Open the stream positioned after ``prefix``, its first ``n_records`` lines.

        ``in_place`` means the file already begins with ``prefix``: it is cut
        back to it (whatever followed is dropped) and fsynced.  Otherwise the
        file is created or truncated to hold exactly ``prefix``.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if in_place:
            self._fh = self.path.open("r+b")
            self._fh.truncate(len(prefix))
            self._fh.seek(len(prefix))
            os.fsync(self._fh.fileno())
        else:
            self._fh = self.path.open("wb")
            self._fh.write(prefix)
        self.n_records = n_records
        self._digest = hashlib.sha256(prefix)
        return self

    def write(self, record: EvaluationRecord) -> None:
        assert self._fh is not None
        line = (json.dumps(to_jsonable(record.to_dict()), sort_keys=True) + "\n").encode("utf-8")
        self._fh.write(line)
        self._fh.flush()
        self._digest.update(line)
        self.n_records += 1

    @property
    def sha256(self) -> str:
        """Hex sha256 of every byte written so far (the whole file)."""
        return self._digest.hexdigest()

    def sync(self) -> None:
        """Force the records to disk (and, once, the directory entry)."""
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if not self._dir_synced:
            fsync_dir(self.path.parent)
            self._dir_synced = True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_history_prefix(path: str, n_records: int, sha256: str) -> bytes:
    """The first ``n_records`` lines of the history file ``path``, checked
    against their ``sha256``; nothing past them is parsed.  A missing file, a
    short one or a different digest raises ``ValueError`` naming the file,
    the expected count and the count found."""
    try:
        with open(path, "rb") as fh:
            terminated = itertools.takewhile(lambda line: line.endswith(b"\n"), fh)
            lines = list(itertools.islice(terminated, n_records))
    except FileNotFoundError:
        raise ValueError(f"history {path!r} is missing: expected {n_records} records, found 0") from None
    prefix = b"".join(lines)
    if len(lines) < n_records or hashlib.sha256(prefix).hexdigest() != sha256:
        problem = "is short" if len(lines) < n_records else "has a different sha256"
        raise ValueError(f"history {path!r} {problem}: expected {n_records} records, found {len(lines)}")
    return prefix


__all__ = [
    "EvaluationRecord",
    "History",
    "HistoryWriter",
    "config_from_dict",
    "read_history_prefix",
]
