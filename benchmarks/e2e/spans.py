"""In-memory span tracing of the program's layer boundaries.

The benchmark does not change the program to trace it.  :func:`install`
replaces the public entry points of each layer (module functions, class
methods) with wrappers that record a span per call: name, start, end, the
enclosing span on the same thread, and the process.  Spans stay in memory
and :meth:`Tracer.dump` writes them as JSON lines when the process ends.
Counters (points queried, ICP iterations, bytes serialized) are kept next to
the spans, measured at the same boundaries.

A layer's *self time* is its span's duration minus the time its child spans
cover; :func:`summarize` turns span files into per-layer totals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: List[tuple] = []  # (id, parent, name, start, end)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open(self) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: Optional[int], name: str, start: float) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a ``name`` span; ``measure(tracer, args,
        result)`` adds counters from the call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context-manager form of :meth:`wrap` (for the benchmark's own calls)."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write a header line (counters, samples, ``extra``) and every span."""
        header = {
            "run": self.run_id,
            "pid": self.pid,
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "missing_hooks": self.missing,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, end in self.spans:
                span = {"run": self.run_id, "pid": self.pid, "id": span_id, "parent": parent}
                fh.write(json.dumps({**span, "name": name, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _icp_iterations(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["slam.icp.iterations"] += result.iterations


def _sdf_points(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["slam.sdf_query.points"] += len(args[1])


def _checkpoint_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    path = args[0].checkpoint_path
    if path is not None and os.path.exists(path):
        size = os.path.getsize(path)
        tracer.counters["persist.checkpoint.bytes_max"] = max(
            tracer.counters["persist.checkpoint.bytes_max"], size
        )


def _serialized_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.samples["transport.serialize.bytes"].append(len(result))


def _deserialized_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["transport.deserialize.bytes"] += len(args[0])


#: (span name, module, attribute path, optional counter hook).  Functions are
#: patched in the module that *calls* them (``from x import f`` binds a name
#: there); methods are patched on their class.
HOOKS = (
    ("search.propose", "repro.core.acquisition", "_SurrogateAcquisition.propose", None),
    ("search.propose", "repro.core.acquisition", "EpsilonGreedy.propose", None),
    ("surrogate.fit", "repro.core.surrogate", "MultiObjectiveSurrogate.fit_encoded", None),
    ("surrogate.fit", "repro.core.surrogate", "MultiObjectiveSurrogate.fit_incremental", None),
    ("surrogate.predict", "repro.core.surrogate", "MultiObjectiveSurrogate.predicted_pareto_encoded", None),
    ("surrogate.predict", "repro.core.surrogate", "MultiObjectiveSurrogate.predict_with_std_encoded", None),
    ("sampling.encode_pool", "repro.core.engine", "build_encoded_pool", None),
    ("executor.submit", "repro.core.executor", "EvaluationExecutor.submit", None),
    ("executor.gather", "repro.core.executor", "EvaluationExecutor.gather", None),
    ("transport.resubmit", "repro.core.executor", "EvaluationExecutor._recover_from_worker_death", None),
    ("transport.serialize", "repro.core.transport", "dumps_b64", _serialized_bytes),
    ("transport.deserialize", "repro.core.transport", "loads_b64", _deserialized_bytes),
    ("persist.checkpoint", "repro.core.engine", "SearchDriver._save_checkpoint", _checkpoint_bytes),
    ("persist.history_write", "repro.core.history", "HistoryWriter.write", None),
    ("persist.history_write", "repro.core.history", "HistoryWriter.rewrite", None),
    ("persist.finalize", "repro.core.study", "Study._finalize_run_dir", None),
    ("evaluator.call", "repro.slambench.runner", "BoundEvaluation.__call__", None),
    ("slam.pipeline", "repro.slam.kfusion", "KinectFusion.run", None),
    ("slam.pipeline", "repro.slam.elasticfusion", "ElasticFusion.run", None),
    ("slam.bilateral", "repro.slam.kfusion", "bilateral_filter", None),
    ("slam.icp", "repro.slam.kfusion", "icp_point_to_implicit", _icp_iterations),
    ("slam.sdf_query", "repro.slam.maps", "AnalyticSDFMap.sdf_query", _sdf_points),
    ("scene.sdf_and_gradient", "repro.slam.scene", "Scene.sdf_and_gradient", None),
    ("slam.integrate", "repro.slam.maps", "AnalyticSDFMap.integrate", None),
    ("slam.surfel_predict_view", "repro.slam.surfel", "SurfelMap.predict_view", None),
    ("slam.surfel_fuse", "repro.slam.surfel", "SurfelMap.fuse", None),
    ("slam.surfel_update", "repro.slam.surfel", "SurfelMap.update_by_index", None),
    ("slam.bilinear_sample", "repro.slam.elasticfusion", "bilinear_sample", None),
    ("slam.ef_geometric", "repro.slam.elasticfusion", "ElasticFusion._geometric_terms", None),
    ("slam.ef_photometric", "repro.slam.elasticfusion", "ElasticFusion._photometric_terms", None),
    ("slam.normal_map", "repro.slam.elasticfusion", "normal_map", None),
    ("dataset.render", "repro.slam.dataset", "SyntheticRGBDDataset._render", None),
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point in :data:`HOOKS` (missing ones are recorded in
    ``tracer.missing`` so a renamed function shows up instead of failing)."""
    for name, module_name, attr_path, measure in HOOKS:
        owner: Any = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        try:
            for part in owners:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            tracer.missing.append(f"{module_name}.{attr_path}")
            continue
        setattr(owner, attr, tracer.wrap(name, fn, measure))
    return tracer


# ---------------------------------------------------------------------------
# Reading span files back
# ---------------------------------------------------------------------------


def load(paths: Iterable[Path]) -> tuple:
    """``(headers, spans)`` from span files written by :meth:`Tracer.dump`."""
    headers, spans = [], []
    for path in paths:
        with open(path) as fh:
            headers.append(json.loads(fh.readline()))
            spans.extend(json.loads(line) for line in fh)
    return headers, spans


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per span name: ``calls``, inclusive ``total_s``, ``self_s``, and the
    individual ``durations``.  Self time subtracts the child spans of the same
    process (spans on other threads have no parent and are not children)."""
    child_time: Dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["pid"], s["parent"])] += s["end"] - s["start"]
    out: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        entry = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[(s["pid"], s["id"])]
        entry["durations"].append(duration)
    return out
