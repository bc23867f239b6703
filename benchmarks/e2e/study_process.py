"""One repetition of one workload, in a fresh process.

    python3 benchmarks/e2e/study_process.py SPEC.json

``SPEC.json`` (written by ``run.py``) names the workload, the scenario, the
run directory and whether to trace.  The process sets up (imports, evaluator
build, ``dataset.prerender()``, eval-workers for the socket workload), prints
``READY``, runs the study through ``Study(scenario, ...).run(run_dir)``, and
prints ``RESULT <json>`` as its last line.  ``run.py`` times set-up from
process start to ``READY``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import scenarios  # noqa: E402
import spans  # noqa: E402

#: Seconds the eval-workers get to connect before the run is failed.
CONNECT_DEADLINE_S = 30.0
#: Seconds a worker gets to exit after the broker shut down.
WORKER_EXIT_S = 10.0
#: Median seconds of :func:`speed_probe` on the reference machine (2-vCPU
#: Xeon VM, Python 3.11, NumPy 2.4, otherwise idle).
PROBE_REFERENCE_S = 0.09


def speed_probe() -> float:
    """Seconds a fixed computation takes right now.

    Small-array NumPy arithmetic (nearest-primitive distances, the shape of
    the SLAM kernels) plus a pure-Python loop.  It belongs to the benchmark,
    so no change to the program can change it; its time only tracks how fast
    the machine runs at the moment.
    """
    rng = np.random.default_rng(0)
    points, centres = rng.random((1500, 3)), rng.random((16, 3))
    start = time.perf_counter()
    for _ in range(150):
        diff = points[:, None, :] - centres[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).min(axis=1)
        np.maximum(dist - 0.1, 0.0).sum()
    total, table = 0, {}
    for i in range(150_000):
        total += (i * 7) % 13
        table[i & 1023] = total
    return time.perf_counter() - start


def machine_slowdown(n: int = 3) -> tuple:
    """``(median probe time / reference, CPU seconds the probes used)``."""
    cpu = time.process_time()
    probes = sorted(speed_probe() for _ in range(n))
    return probes[n // 2] / PROBE_REFERENCE_S, time.process_time() - cpu


class WorkersNotConnected(RuntimeError):
    """The socket workload's eval-workers did not all connect in time."""


def build_black_box(scenario, tracer):
    """``(evaluate, runner)`` for ``Study``: the slambench runner with its
    dataset rendered, or the synthetic black box."""
    spec = scenario.evaluator_spec
    if spec["type"] == "function":
        fn = scenarios.SyntheticBlackBox(scenario.build_space(), spec["world_seed"])
        return (tracer.wrap("evaluator.call", fn) if tracer else fn), None
    from repro.slambench.workloads import get_workload

    runner = get_workload(spec["workload"]).make_runner(
        n_frames=spec["n_frames"],
        width=spec["width"],
        height=spec["height"],
        dataset_seed=spec["dataset_seed"],
        pipeline_seed=spec.get("pipeline_seed", 0),
        pipeline_options=spec.get("pipeline_options"),
    )
    runner.dataset.prerender()
    return None, runner


def _log_tail(path: Path, n: int = 20) -> str:
    try:
        return "".join(path.read_text(errors="replace").splitlines(True)[-n:])
    except OSError as exc:
        return f"<unreadable: {exc}>"


def start_workers(n: int, rep_dir: Path, trace: bool, run_id: str):
    """A broker on a free loopback port plus ``n`` eval-worker processes.

    Returns ``(broker, procs)`` once every worker has connected.  A worker
    that exits early or a missed deadline raises :class:`WorkersNotConnected`
    carrying a diagnostic dump (broker state, worker exit codes and logs).
    """
    from repro.core.transport import EvaluationBroker

    broker = EvaluationBroker("127.0.0.1", 0).start()  # port 0: the OS picks a free one
    host, port = broker.address
    procs = []
    try:
        for i in range(n):
            cmd = [sys.executable, str(HERE / "worker.py")]
            if trace:
                cmd += ["--trace-out", str(rep_dir / f"spans-worker{i}.jsonl"), "--run-id", run_id]
            cmd += [
                # The name carries the repetition's directory, so a leftover
                # worker is traceable to the run that started it.
                "--", "--connect", f"{host}:{port}", "--name", f"{rep_dir}/worker{i}",
                "--connect-timeout", str(CONNECT_DEADLINE_S), "--quiet",
            ]
            with open(rep_dir / f"worker{i}.log", "w") as log:
                procs.append(
                    subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
                )
        deadline = time.monotonic() + CONNECT_DEADLINE_S
        while not broker.wait_for_workers(n, timeout=0.1):
            if any(p.poll() is not None for p in procs) or time.monotonic() > deadline:
                dump = {
                    "broker": broker.debug_snapshot(),
                    "worker_exit_codes": [p.poll() for p in procs],
                    "worker_logs": {
                        f"worker{i}": _log_tail(rep_dir / f"worker{i}.log") for i in range(n)
                    },
                }
                raise WorkersNotConnected(
                    f"{broker.n_workers_connected}/{n} eval-workers connected "
                    f"(deadline {CONNECT_DEADLINE_S}s): " + json.dumps(dump, indent=2)
                )
    except BaseException:
        stop_workers(broker, procs)
        raise
    return broker, procs


def stop_workers(broker, procs) -> list:
    """Shut the broker down and make sure every worker process has ended;
    returns the workers' exit codes (negative = killed here)."""
    if broker is not None:
        # wait=False: joining the accept thread blocks for its full 5 s
        # timeout, because closing the listener does not wake accept().
        broker.shutdown(wait=False)
    for proc in procs:
        try:
            proc.wait(timeout=WORKER_EXIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return [proc.returncode for proc in procs]


def main(spec_path: str) -> int:
    # SIGTERM and SIGINT take the normal exit path, which stops the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    spec = json.loads(Path(spec_path).read_text())
    rep_dir = Path(spec["rep_dir"])
    tracer = spans.install(spans.Tracer(spec["run_id"])) if spec["trace"] else None

    from repro.core.faults import summarize_faults
    from repro.core.scenario import Scenario
    from repro.core.study import HISTORY_FILE, Study, run_status

    scenario = Scenario.from_dict(spec["scenario"])
    executor = scenario.executor_spec
    n_workers = executor["n_workers"] if executor["backend"] == "socket" else 0
    broker, procs = None, []
    traced = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    try:
        evaluate, runner = build_black_box(scenario, tracer)
        if n_workers:
            broker, procs = start_workers(n_workers, rep_dir, spec["trace"], spec["run_id"])
        print("READY", flush=True)
        slowdown_before, probe_cpu_before = machine_slowdown()
        start = time.perf_counter()
        with traced("study.run"):
            result = Study(scenario, evaluate=evaluate, runner=runner, broker=broker).run(spec["run_dir"])
        study_wall_s = time.perf_counter() - start
        workers_lost = n_workers - broker.n_workers_connected if broker is not None else 0
    finally:
        worker_exit_codes = stop_workers(broker, procs)
    slowdown_after, probe_cpu_after = machine_slowdown()

    history = Path(spec["run_dir"]) / HISTORY_FILE
    records = result.persisted_history().records
    hv = result.hypervolume(scenarios.WORKLOADS[spec["workload"]].reference)
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "study_wall_s": study_wall_s,
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
        - probe_cpu_before - probe_cpu_after,
        "slowdown": (slowdown_before + slowdown_after) / 2,
        "peak_rss_mb": own.ru_maxrss / 1024.0,
        "history_sha256": hashlib.sha256(history.read_bytes()).hexdigest(),
        "history_bytes": history.stat().st_size,
        "n_evaluations": len(records),
        "failed": summarize_faults(records)["n_affected"],
        "final_hv": hv if math.isfinite(hv) else None,
        "status": run_status(spec["run_dir"]),
        "worker_exit_codes": worker_exit_codes,
        "workers_lost": workers_lost,
    }
    if tracer is not None:
        tracer.dump(rep_dir / "spans-study.jsonl", {"role": "study", "study_wall_s": study_wall_s})
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
