"""End-to-end study benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out DIR] [--smoke]

Each workload (see ``scenarios.py``) is a whole study run through the public
API.  A run repeats the workload's study, each repetition in a fresh process
(``study_process.py``), until ``--seconds`` have passed (at least three
times), and reports medians.  Load is closed-loop: one study at a time.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced repetitions (interleaved with untraced ones, which give
the tracing overhead).  Every run checks the histories: all repetitions
byte-identical, no failed evaluation, the socket workload identical to the
serial executor, and at seed 0 the digests in ``golden.json``.  A failed
check exits 1.  Output lands in ``.benchmarks/e2e/<stamp>-<workload>-s<seed>/``;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Seed-0 history digests and hypervolumes of every workload.
GOLDEN = HERE / "golden.json"

#: Repetitions per run, whatever ``--seconds`` says (set-up is a median of these).
MIN_REPS = 3
#: A repetition that has not finished after this long is killed (a full-size
#: one takes ~5 s on the reference machine).
REP_TIMEOUT_S = 60.0

#: End-to-end metric -> unit.  Each is the median over a run's repetitions;
#: the times are at reference-machine speed (see README.md).
END_TO_END_UNITS: Dict[str, str] = {
    "study_wall_s": "s",  # wall time of Study.run
    "setup_s": "s",  # process start to READY: imports, evaluator, prerender, workers
    "cpu_s": "s",  # user+sys of the study process and its eval-worker children
    "peak_rss_mb": "MB",  # peak resident set of the study process
}

#: Spans whose self time is reported as a share of the traced study's wall time.
SHARE_SPANS = (
    "search.propose",
    "surrogate.fit",
    "surrogate.predict",
    "sampling.encode_pool",
    "executor.submit",
    "executor.gather",
    "evaluator.call",
    "slam.pipeline",
    "slam.bilateral",
    "slam.icp",
    "slam.sdf_query",
    "scene.sdf_and_gradient",
    "slam.integrate",
    "slam.surfel_predict_view",
    "slam.surfel_fuse",
    "slam.surfel_update",
    "slam.bilinear_sample",
    "slam.ef_geometric",
    "slam.ef_photometric",
    "slam.normal_map",
    "persist.checkpoint",
    "persist.history_write",
    "persist.finalize",
    "transport.serialize",
    "transport.deserialize",
)

#: Call counts: metric name -> span name.
CALL_COUNTS = (
    ("surrogate.fit.calls", "surrogate.fit"),
    ("surrogate.predict.calls", "surrogate.predict"),
    ("executor.batches", "executor.submit"),
    ("evaluator.calls", "evaluator.call"),
    ("slambench.simulations", "slam.pipeline"),
    ("slam.bilateral.calls", "slam.bilateral"),
    ("slam.icp.calls", "slam.icp"),
    ("scene.sdf_and_gradient.calls", "scene.sdf_and_gradient"),
    ("slam.bilinear_sample.calls", "slam.bilinear_sample"),
    ("persist.checkpoint.calls", "persist.checkpoint"),
    ("transport.resubmits", "transport.resubmit"),
)

PER_LAYER_UNITS: Dict[str, str] = {
    "trace.study_wall_s": "s",
    "trace.attributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
    **{f"{name}.self_pct": "%" for name in SHARE_SPANS},
    **{metric: "count" for metric, _ in CALL_COUNTS},
    "slam.icp.iterations": "count",
    "slam.sdf_query.points": "count",
    "slambench.cache_hit_frac": "frac",
    "evaluator.call_p50_ms": "ms",
    "evaluator.call_p80_ms": "ms",
    "dataset.render.frames": "count",
    "dataset.render.setup_pct": "%",
    "persist.checkpoint.bytes_max": "bytes",
    "persist.history.bytes": "bytes",
    "transport.task_bytes_p50": "bytes",
    "transport.bytes_total": "bytes",
    "transport.worker_peak_rss_mb": "MB",
}


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def git_state() -> Dict[str, Any]:
    """``{"sha", "dirty"}`` of the checkout, ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "--no-optional-locks", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def run_metadata(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git": git_state(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    # REPRO_* switches (e.g. REPRO_RECORD_TIMING) change what a run writes;
    # the benchmark's studies run with the program's defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_rep(workload: str, scenario: Dict[str, Any], rep_dir: Path, trace: bool, run_id: str) -> Dict[str, Any]:
    """Run one study in a fresh process; returns its measurements.

    The process gets its own session, so killing its process group on any
    exit path (error, timeout, Ctrl-C) also ends its eval-workers.
    """
    rep_dir.mkdir(parents=True)
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "workload": workload,
                "scenario": scenario,
                "run_dir": str(rep_dir / "run"),
                "rep_dir": str(rep_dir),
                "trace": trace,
                "run_id": run_id,
            },
            indent=2,
        )
    )
    log_path = rep_dir / "study_process.log"
    ready: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "study_process.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            cwd=str(ROOT), env=_child_env(), text=True, start_new_session=True,
        )
        watchdog = threading.Timer(REP_TIMEOUT_S, _kill_group, args=(proc.pid,))
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("READY"):
                    ready = time.perf_counter()
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                _kill_group(proc.pid)
                proc.wait()
            # Anything still in the group (an orphaned worker) goes too.
            _kill_group(proc.pid)
    if proc.returncode != 0 or result is None or ready is None:
        raise RuntimeError(
            f"{workload} repetition in {rep_dir} exited with {proc.returncode}:\n"
            + "".join(log_path.read_text(errors="replace").splitlines(True)[-30:])
        )
    # Times are reported at reference-machine speed (see README.md); the
    # measured ones stay in result.json under "raw".
    result["raw"] = {"study_wall_s": result["study_wall_s"], "setup_s": ready - start, "cpu_s": result["cpu_s"]}
    result.update({k: v / result["slowdown"] for k, v in result["raw"].items()})
    result["traced"] = trace
    result["rep_dir"] = str(rep_dir)
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(rep: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (see README.md)."""
    import spans

    rep_dir = Path(rep["rep_dir"])
    headers, all_spans = spans.load(sorted(rep_dir.glob("spans-*.jsonl")))
    study = next(h for h in headers if h.get("role") == "study")
    workers = [h for h in headers if h.get("role") == "worker"]
    wall = study["study_wall_s"]
    # Shares and call counts cover the study itself; set-up (the dataset
    # render) happens before it and is reported against setup_s.
    root = next(s for s in all_spans if s["name"] == "study.run")
    summary = spans.summarize([s for s in all_spans if s["start"] >= root["start"]])

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    counters: Dict[str, float] = {}
    for h in headers:
        for key, value in h["counters"].items():
            counters[key] = max(counters.get(key, 0), value) if key.endswith("_max") else counters.get(key, 0) + value
    task_bytes = study["samples"].get("transport.serialize.bytes", [])
    all_bytes = [b for h in headers for b in h["samples"].get("transport.serialize.bytes", [])]
    evals = [d * 1e3 for d in summary.get("evaluator.call", {}).get("durations", [])]
    renders = [s for s in all_spans if s["name"] == "dataset.render"]
    render_in_setup = sum(s["end"] - s["start"] for s in renders if s["end"] <= root["start"])
    simulations, calls = stat("slam.pipeline", "calls"), stat("evaluator.call", "calls")

    out: Dict[str, float] = {
        "trace.study_wall_s": wall,
        "trace.attributed_frac": 1.0 - stat("study.run", "self_s") / wall,
        "trace.spans": len(all_spans),
        **{f"{name}.self_pct": 100.0 * stat(name, "self_s") / wall for name in SHARE_SPANS},
        **{metric: stat(name, "calls") for metric, name in CALL_COUNTS},
        "slam.icp.iterations": counters.get("slam.icp.iterations", 0),
        "slam.sdf_query.points": counters.get("slam.sdf_query.points", 0),
        "slambench.cache_hit_frac": (calls - simulations) / calls if simulations else 0.0,
        "evaluator.call_p50_ms": _percentile(evals, 50),
        "evaluator.call_p80_ms": _percentile(evals, 80),
        "dataset.render.frames": len(renders),
        "dataset.render.setup_pct": 100.0 * render_in_setup / rep["raw"]["setup_s"],
        "persist.checkpoint.bytes_max": counters.get("persist.checkpoint.bytes_max", 0),
        "persist.history.bytes": rep["history_bytes"],
        "transport.task_bytes_p50": statistics.median(task_bytes) if task_bytes else 0,
        "transport.bytes_total": sum(all_bytes),
        "transport.worker_peak_rss_mb": max((h["peak_rss_mb"] for h in workers), default=0.0),
    }
    missing = sorted({m for h in headers for m in h["missing_hooks"]})
    if missing:
        print(f"warning: trace hooks not found: {', '.join(missing)}", file=sys.stderr)
    return out


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check_reps(reps: List[Dict[str, Any]], reference: Optional[Dict[str, Any]]) -> List[str]:
    """Correctness failures of a run's repetitions (empty list = correct)."""
    problems = []
    digests = {r["history_sha256"] for r in reps}
    if len(digests) != 1:
        problems.append(f"history.jsonl differs between repetitions: {sorted(digests)}")
    digest, hv = reps[0]["history_sha256"], reps[0]["final_hv"]
    if any(r["final_hv"] != hv for r in reps):
        problems.append("final_hv differs between repetitions")
    if hv is None or hv <= 0:
        problems.append(f"final_hv is {hv}: no feasible front inside the reference point")
    for r in reps + ([reference] if reference is not None else []):
        if r["failed"]:
            problems.append(f"{r['failed']} of {r['n_evaluations']} evaluations failed")
        if r["status"] != "complete":
            problems.append(f"run status {r['status']!r}, expected 'complete'")
        # A worker that died mid-study has its task resubmitted, which the
        # history does not show; its exit code and the broker's count do.
        if any(code != 0 for code in r["worker_exit_codes"]):
            problems.append(f"eval-worker exit codes {r['worker_exit_codes']} in {r['rep_dir']}")
        if r["workers_lost"]:
            problems.append(f"{r['workers_lost']} eval-worker(s) disconnected during the study in {r['rep_dir']}")
    if reference is not None and reference["history_sha256"] != digest:
        problems.append(
            f"socket history {digest} != serial executor history {reference['history_sha256']}"
        )
    return problems


def check_golden(rep: Dict[str, Any], golden: Optional[Dict[str, Any]]) -> List[str]:
    """Differences between a seed-0 repetition and its golden entry."""
    if golden is None:
        return [f"{GOLDEN.name} has no entry for this workload"]
    problems = []
    if golden["history_sha256"] != rep["history_sha256"]:
        problems.append(f"history sha256 {rep['history_sha256']} != golden {golden['history_sha256']}")
    if golden["final_hv"] != rep["final_hv"]:
        problems.append(f"final_hv {rep['final_hv']!r} != golden {golden['final_hv']!r}")
    return problems


def run_workload(workload: str, args: argparse.Namespace, out_root: Path) -> Dict[str, Any]:
    import scenarios

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    run_dir = out_root / f"{stamp}-{workload}-s{args.seed}{'-trace' if args.trace else ''}{'-smoke' if args.smoke else ''}"
    run_dir.mkdir(parents=True)
    scenario = scenarios.build_scenario(workload, args.seed, smoke=args.smoke)
    (run_dir / "scenario.json").write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
    meta = run_metadata(args.seed)
    meta["scenario"] = scenario

    reps: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(workload, scenario, run_dir / f"rep{len(reps)}", traced, f"{run_dir.name}/rep{len(reps)}"))
    reference = None
    if scenarios.WORKLOADS[workload].socket_workers:
        twin = scenarios.serial_twin(scenario)
        meta["reference_scenario"] = twin
        reference = run_rep(workload, twin, run_dir / "serial-reference", False, f"{run_dir.name}/serial-reference")

    problems = check_reps(reps, reference)
    if args.seed == 0 and not args.update_golden:
        golden = load_golden().get("smoke" if args.smoke else "full", {}).get(workload)
        problems += check_golden(reps[0], golden)
    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r) for r in traced_reps]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(r["study_wall_s"] for r in traced_reps)
            / statistics.median(r["study_wall_s"] for r in untraced)
            - 1.0
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    meta["loadavg_end"] = list(os.getloadavg())
    summary = {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["n_evaluations"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "history_sha256": reps[0]["history_sha256"],
        "final_hv": reps[0]["final_hv"],
        "reps": reps,
        "serial_reference": reference,
        "metadata": meta,
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"== {workload}  seed={args.seed}  repetitions={len(reps)}  -> {os.path.relpath(run_dir, ROOT)}")
    for name, m in summary["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"  history sha256 {summary['history_sha256']}  final_hv {summary['final_hv']!r}")
    for p in problems:
        print(f"  FAILED: {p}")
    return summary


def update_golden(args: argparse.Namespace, results: List[Dict[str, Any]]) -> None:
    data = load_golden()
    section = data.setdefault("smoke" if args.smoke else "full", {})
    for r in results:
        section[r["workload"]] = {"history_sha256": r["history_sha256"], "final_hv": r["final_hv"]}
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="world seed (0 = the golden inputs)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measure at least this long per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced repetitions",
    )
    parser.add_argument("--out", type=Path, default=ROOT / ".benchmarks" / "e2e", help="output directory")
    parser.add_argument("--smoke", action="store_true", help="tiny scenarios (8 frames at 32x24, ~10 evaluations)")
    parser.add_argument("--update-golden", action="store_true", help="record this run's seed-0 digests as golden")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source tree {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenarios

    names = list(scenarios.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in scenarios.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} (known: {', '.join(scenarios.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.update_golden and args.seed != 0:
        print("error: goldens are recorded at --seed 0", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, through the finally blocks that kill children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        results = [run_workload(name, args, args.out.resolve()) for name in names]
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    if args.update_golden:
        update_golden(args, results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
