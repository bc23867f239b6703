"""Eval-worker entry point of the benchmark.

    python3 benchmarks/e2e/worker.py [--trace-out FILE] -- <repro eval-worker arguments>

Runs ``repro eval-worker`` unchanged.  With ``--trace-out`` it first installs
the same layer wrappers as the study process, and writes the worker's spans
and peak RSS to ``FILE`` when the worker exits, so the socket workload's
trace covers the evaluations the workers run.
"""

from __future__ import annotations

import argparse
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--run-id", default="worker")
    parser.add_argument("worker_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    worker_args = [a for a in args.worker_args if a != "--"]

    # SIGTERM from the study process ends the worker through the normal exit
    # path, so a traced worker still writes its spans.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tracer = None
    if args.trace_out is not None:
        import spans

        tracer = spans.install(spans.Tracer(args.run_id))
    from repro.cli import main as repro_main

    try:
        return repro_main(["eval-worker", *worker_args])
    finally:
        if tracer is not None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tracer.dump(args.trace_out, {"role": "worker", "peak_rss_mb": rss_mb})


if __name__ == "__main__":
    sys.exit(main())
