"""Self-check of the benchmark harness, on the ``--smoke`` scenarios (~30 s).

    python3 benchmarks/e2e/selftest.py

Checks that every workload runs and passes its golden at seed 0, that each
``BENCHMARK.json`` metric is printed exactly once with its unit (end-to-end
and per-layer), that a tampered or missing golden fails the run, that no eval-worker
outlives a run (also when the run is interrupted with Ctrl-C), and that the
benchmark fails without printing a result when the program's source is
missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = [sys.executable, str(HERE / "run.py")]


def run(args, cwd=ROOT, timeout=120):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_line(proc) -> dict:
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def processes_mentioning(text: str) -> dict:
    """PID -> command line of the processes whose command line contains
    ``text`` (this process excluded)."""
    found = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if text in cmdline:
            found[int(entry.name)] = cmdline
    return found


def copy_benchmark(dest: Path) -> Path:
    """``dest`` holding only ``BENCHMARK.json`` and a copy of this directory."""
    shutil.copytree(HERE, dest / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def check_printed_once(stdout: str, expected: list) -> None:
    table = [line.split() for line in stdout.splitlines() if line.startswith("  ")]
    for name, unit in expected:
        rows = [row for row in table if row[0] == name]
        assert len(rows) == 1, f"{name} printed {len(rows)} times"
        assert rows[0][-1] == unit, f"{name} printed with unit {rows[0][-1]!r}, expected {unit!r}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import run as harness
    import scenarios

    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert end_to_end == list(harness.END_TO_END_UNITS.items()), "BENCHMARK.json end_to_end != run.py"
    assert per_layer == list(harness.PER_LAYER_UNITS.items()), "BENCHMARK.json per_layer != run.py"
    assert [w["name"] for w in bench["workloads"]] == list(scenarios.WORKLOADS), "workload list differs"

    out = ROOT / ".benchmarks" / "e2e-selftest" / time.strftime("%Y%m%dT%H%M%S")
    out.mkdir(parents=True)
    common = ["--smoke", "--seed", "0", "--seconds", "1", "--out", str(out)]

    for workload in scenarios.WORKLOADS:
        proc = run(["--workload", workload, *common])
        assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        result = result_line(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
        assert list(result["metrics"]) == [n for n, _ in end_to_end], result["metrics"].keys()
        check_printed_once(proc.stdout, end_to_end)
        print(f"ok  {workload}: golden matched, end-to-end metrics printed once each")

    proc = run(["--workload", "kfusion-socket2", "--trace", "1", *common])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert list(result["metrics"]) == [n for n, _ in per_layer], result["metrics"].keys()
    check_printed_once(proc.stdout, per_layer)
    assert result["metrics"]["evaluator.calls"]["value"] > 0, "worker spans missing from the trace"
    print("ok  trace: per-layer metrics printed once each, worker spans merged")

    tampered = copy_benchmark(out / "tampered")
    (tampered / "src").symlink_to(ROOT / "src")
    golden_path = tampered / "benchmarks" / "e2e" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["smoke"]["kfusion-serial"]["history_sha256"] = "0" * 64
    del golden["smoke"]["search-heavy"]
    golden_path.write_text(json.dumps(golden))
    for workload in ("kfusion-serial", "search-heavy"):
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", workload, *common],
            cwd=tampered, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0 and not result_line(proc)["correct"], proc.stdout
    print("ok  a tampered or missing golden fails the run")

    assert not processes_mentioning(str(out)), "processes of the self-check outlived their runs"
    interrupted = subprocess.Popen(
        RUN + ["--workload", "kfusion-socket2", "--smoke", "--seconds", "60", "--out", str(out / "interrupted")],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not any("worker.py" in cmd for cmd in processes_mentioning(str(out / "interrupted")).values()):
            assert time.monotonic() < deadline, "no eval-worker started"
            time.sleep(0.1)
        interrupted.send_signal(signal.SIGINT)
        assert interrupted.wait(timeout=30) != 0
    finally:
        if interrupted.poll() is None:
            interrupted.kill()
            interrupted.wait()
    time.sleep(0.5)
    leftovers = processes_mentioning(str(out / "interrupted"))
    assert not leftovers, f"processes outlived the interrupted run: {leftovers}"
    print("ok  no eval-worker outlives a run, including one stopped with Ctrl-C")

    bare = copy_benchmark(out / "bare")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "kfusion-serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout, proc.stdout
    assert not (bare / ".benchmarks").exists(), "the failed run wrote output"
    print("ok  without the program's source the benchmark fails and prints no result")

    shutil.rmtree(out)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
