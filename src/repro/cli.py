"""The ``python -m repro`` command line: the single operational entry point.

Subcommands
-----------
``run <scenario>``
    Validate a scenario file (JSON or TOML), execute it through
    :class:`~repro.core.study.Study`, persist a versioned run directory and
    print the report.
``resume <run_dir>``
    Continue a killed run from its engine checkpoint (bit-identical to the
    uninterrupted run); a finished run just replays to the same result.
``sweep <spec>``
    Expand a sweep spec into a fleet of studies, drain them as one
    ``sweep-worker`` in this process (one run dir per point), and write the
    cross-run comparison report.  ``--resume`` re-runs only the points whose
    run dirs are not complete; ``--force`` deletes the old points and leases.
``sweep-report <sweep_dir>``
    Recompute and print the comparison report of a persisted sweep.
``sweep-worker <sweep_dir>``
    Join a lease-coordinated sweep as one worker process: claim points via
    durable leases, run them, settle results into the manifest.  Launch N of
    these on one sweep directory to drain it cooperatively; a worker that
    dies loses its lease heartbeats and survivors take its points over
    (see ``docs/distributed.md``).
``eval-worker --connect HOST:PORT``
    Join a running study's evaluation broker as one worker (the socket
    backend's remote half): handshake, heartbeat, build evaluators from the
    specs the broker sends, drain tasks until the broker shuts down.  Launch
    N of these — on any host that can reach the broker; a killed worker's
    in-flight evaluation is resubmitted.  Plugin evaluators need a launcher
    module that imports them (see ``docs/distributed.md``).
``doctor <run_or_sweep_dir>``
    Detect and repair crash residue: torn ``history.jsonl`` tails, stranded
    ``*.tmp`` files, orphaned/expired leases, corrupt lease checksums.
    ``--dry-run`` reports without touching anything.
``validate <spec>...``
    Validate scenario or sweep files (detected by shape) without running
    anything.  Errors carry JSON-pointer-style paths to the offending key.
``report <run_dir>``
    Print the report of a persisted run, derived from its ``history.jsonl``.
``list-plugins``
    Show every registered plugin name (acquisitions, search algorithms,
    evaluators, workloads, devices, schedule policies).
``serve``
    Run the always-on optimization service: a live submission queue with
    tenant quotas, priority admission with preemption, and an HTTP/JSON
    front door (see ``docs/service.md``).  SIGTERM/SIGINT parks running
    studies at their next iteration boundary, journals the queue, and
    exits 0; restarting on the same ``--state-dir`` resumes bit-identically.
``submit <scenario>``
    Submit a scenario to a running service over HTTP; ``--wait`` blocks for
    the result, ``--follow`` streams progress events as NDJSON.

Exit codes (consistent across subcommands)
------------------------------------------
* ``0`` — success.
* ``1`` — the work itself failed: a run crashed at runtime, a run or sweep
  finished *degraded* (faulty configurations were quarantined with penalty
  metrics — artifacts are complete and the exit code is the only alarm), or
  a sweep finished *partial* (some points failed — the rest of their
  siblings' artifacts are intact and reported).
* ``2`` — the input could not be used: validation errors, unknown plugins,
  missing files/directories, refusing to clobber an existing run.

The HTTP front door speaks the same contract: ``422``/``400`` responses are
the exit-``2`` family (the body carries the JSON-pointer ``path``),
``409``/``500`` are the exit-``1`` family, and a finished study's status
snapshot carries its CLI-equivalent ``exit_code`` (``complete`` → 0,
``degraded``/``failed``/``canceled`` → 1).  ``submit --wait`` exits with
exactly that code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.registry import load_builtin_plugins, registry_snapshot
from repro.core.scenario import Scenario, ScenarioError
from repro.core.study import Study, StudyResult

#: Exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _safe_dir_name(name: str) -> str:
    # The name comes off the wire — sanitize it before deriving a path
    # so it cannot climb out of (or scatter nested dirs under) runs/.
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip(".-") or "scenario"


def _print_report(result: StudyResult, out=None) -> None:
    from repro.utils.tables import format_table

    report = result.report()
    lines: List[str] = []
    lines.append(
        f"study {report['scenario']!r} ({report['algorithm']}): "
        f"{report['n_evaluations']} evaluations, {report['n_feasible']} feasible, "
        f"{report['n_pareto']} Pareto points"
    )
    per_source = ", ".join(f"{k}={v}" for k, v in sorted(report["per_source"].items()))
    lines.append(f"  evaluations by source: {per_source}")
    engine = report.get("engine", {})
    if engine:
        lines.append(
            f"  engine: {engine.get('n_workers', 1)} worker(s), "
            f"acquisition {engine.get('acquisition')}, "
            f"{engine.get('n_black_box_evaluations', 'n/a')} distinct black-box runs"
        )
    rows = []
    for name, entry in report["best"].items():
        if entry is None:
            rows.append([name, "(no feasible point)", ""])
        else:
            value = entry["metrics"][name]
            config = ", ".join(f"{k}={v}" for k, v in entry["config"].items())
            rows.append([name, f"{value:.6g}", config])
    lines.append(format_table(rows, headers=["objective", "best", "configuration"], title="  Best per objective:"))
    if result.run_dir is not None:
        lines.append(f"  artifacts: {result.run_dir}")
    print("\n".join(lines), file=out if out is not None else sys.stdout)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario_path = Path(args.scenario)
    try:
        scenario = Scenario.from_file(scenario_path)
    except FileNotFoundError:
        print(f"error: {scenario_path}: no such file", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"error: {scenario_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        scenario = scenario.replace(seed=args.seed)
    if args.run_dir:
        run_dir = Path(args.run_dir)
    else:
        run_dir = Path("runs") / _safe_dir_name(scenario.name)
    if (run_dir / "history.jsonl").exists() and not args.force:
        print(
            f"error: {run_dir} already holds a run (use --force to overwrite, "
            f"or 'resume' to continue it)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        result = Study(scenario).run(run_dir=run_dir)
    except ScenarioError as exc:  # compile-time errors: the spec is unusable
        print(f"error: {scenario_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the run itself failed (status recorded in run.json)
        print(f"error: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if not args.quiet:
        _print_report(result)
    return _degraded_exit(result)


def _degraded_exit(result) -> int:
    """Exit code for a finished study: degraded runs completed, but some
    configurations were quarantined with penalty metrics — surface that to
    scripts the same way a partial sweep is surfaced."""
    if result.is_degraded:
        faults = result.fault_summary()
        print(
            f"warning: run degraded ({faults['n_quarantined']} of "
            f"{faults['n_affected']} faulty configurations quarantined; "
            "see 'attempts' entries in history.jsonl)",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def _cmd_resume(args: argparse.Namespace) -> int:
    try:
        result = Study.resume(args.run_dir)
    except (FileNotFoundError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # corrupt/incompatible checkpoint or run dir
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: resume failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if not args.quiet:
        _print_report(result)
    return _degraded_exit(result)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweep import SweepSpec, run_sweep

    spec_path = Path(args.spec)
    try:
        spec = SweepSpec.from_file(spec_path)
    except FileNotFoundError:
        print(f"error: {spec_path}: no such file", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"error: {spec_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sweep_dir = Path(args.sweep_dir) if args.sweep_dir else Path("runs") / _safe_dir_name(spec.name)
    try:
        result = run_sweep(
            spec,
            sweep_dir,
            max_concurrent=args.max_concurrent,
            resume=args.resume,
            force=args.force,
        )
    except (ScenarioError, ValueError) as exc:
        # ValueError here is scheduler configuration (e.g. --max-concurrent 0);
        # per-point runtime failures never raise — they are manifest entries.
        print(f"error: {spec_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: sweep failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if not args.quiet:
        _print_sweep(result.comparison, sweep_dir)
    if result.status == "degraded":
        n_degraded = sum(
            1 for p in result.manifest["points"] if p["status"] == "degraded"
        )
        print(
            f"warning: sweep finished degraded ({n_degraded} of "
            f"{result.manifest['n_points']} points quarantined faulty "
            f"configurations; see {sweep_dir / 'sweep.json'})",
            file=sys.stderr,
        )
        return EXIT_FAILED
    if result.status != "complete":
        print(
            f"error: sweep finished partial ({result.n_failed} of "
            f"{result.manifest['n_points']} points failed; see {sweep_dir / 'sweep.json'})",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.core.sweep import build_comparison

    try:
        comparison = build_comparison(args.sweep_dir, write=not args.no_write)
    except (FileNotFoundError, ValueError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    else:
        _print_sweep(comparison, Path(args.sweep_dir))
    return EXIT_OK if comparison["status"] == "complete" else EXIT_FAILED


def _print_sweep(comparison: Dict, sweep_dir: Path, out=None) -> None:
    from repro.utils.tables import format_table

    objectives = comparison.get("objectives") or []
    lines: List[str] = [
        f"sweep {comparison['sweep']!r}: {comparison['n_complete']}/{comparison['n_points']} "
        f"points complete ({comparison['status']})"
    ]
    rows = []
    for entry in comparison["points"]:
        hv = entry.get("hypervolume")
        best = entry.get("best", {})
        rows.append(
            [
                entry["point_id"],
                entry["status"],
                str(entry.get("n_evaluations", "-")),
                str(entry.get("n_pareto", "-")),
                "-" if hv is None else f"{hv:.6g}",
            ]
            + ["-" if best.get(n) is None else f"{best[n]:.6g}" for n in objectives]
        )
    lines.append(
        format_table(
            rows,
            headers=["point", "status", "evals", "pareto", "hypervolume"]
            + [f"best {n}" for n in objectives],
            title="  Points:",
        )
    )
    for entry in comparison["points"]:
        if entry["status"] in ("failed", "invalid", "unreadable"):
            lines.append(f"  {entry['point_id']}: {entry['status']}: {entry.get('error')}")
    if comparison.get("ranking"):
        lines.append("  ranking by hypervolume: " + ", ".join(comparison["ranking"]))
    lines.append(f"  artifacts: {sweep_dir}")
    print("\n".join(lines), file=out if out is not None else sys.stdout)


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.core.sweep import SweepSpec, SweepWorker, prepare_sweep_dir

    sweep_dir = Path(args.sweep_dir)
    try:
        if args.spec is not None:
            # First worker to arrive creates the manifest; the rest verify
            # their spec matches and join without rewriting progress.
            prepare_sweep_dir(SweepSpec.from_file(args.spec), sweep_dir, resume=True)
        elif not (sweep_dir / "sweep.json").exists():
            print(
                f"error: {sweep_dir} is not a sweep directory "
                "(pass --spec to create it)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        worker = SweepWorker(
            sweep_dir,
            owner=args.owner,
            ttl_s=args.ttl,
            max_concurrent=args.max_concurrent,
            hold_after_claim=args.hold_after_claim,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def on_claim(claim) -> None:
        if not args.quiet:
            print(f"worker {worker.owner}: claimed {claim.key}", flush=True)

    def on_outcome(outcome) -> None:
        if not args.quiet:
            suffix = "" if outcome.error is None else f" ({outcome.error})"
            print(f"worker {worker.owner}: {outcome.key} {outcome.status}{suffix}", flush=True)

    try:
        worker.run(max_points=args.max_points, on_claim=on_claim, on_outcome=on_outcome)
        manifest = worker.finalize()
    except Exception as exc:  # claim/settle plumbing failed, not a study
        print(f"error: worker failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    for pid in worker.fenced_points:
        print(
            f"warning: fenced on {pid}: another worker took the point over; "
            "its result stands",
            file=sys.stderr,
        )
    if not args.quiet:
        print(
            f"sweep {manifest['name']!r}: {manifest['n_complete']}/{manifest['n_points']} "
            f"complete ({manifest['status']})"
        )
    if manifest["status"] == "complete":
        return EXIT_OK
    if manifest["status"] == "running":
        # This worker hit --max-points (or every remaining point is leased
        # elsewhere); the sweep itself is still in progress.
        return EXIT_OK
    return EXIT_FAILED


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.core.doctor import doctor

    try:
        report = doctor(args.path, repair=not args.dry_run)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    # Exit 0 only for a tree that is now known-good: it was clean, or every
    # finding was repaired in this pass.  Dry-run findings and unrepairable
    # damage exit 1 so scripts/CI can gate on cleanliness.
    return EXIT_OK if report.healthy else EXIT_FAILED


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.sweep import SweepSpec, load_spec_file

    failures = 0
    for path in args.scenarios:
        try:
            spec = load_spec_file(path)
        except FileNotFoundError:
            print(f"{path}: error: no such file", file=sys.stderr)
            failures += 1
            continue
        except ScenarioError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            failures += 1
            continue
        if isinstance(spec, SweepSpec):
            try:
                # Validation includes expansion: every point's overrides must
                # produce a valid scenario, not just the base.
                points = spec.expand(strict=True)
            except ScenarioError as exc:
                print(f"{path}: error: {exc}", file=sys.stderr)
                failures += 1
                continue
            print(
                f"{path}: ok (sweep {spec.name!r}, {len(points)} points, "
                f"algorithm {spec.base.search_spec['algorithm']!r})"
            )
        else:
            print(
                f"{path}: ok (scenario {spec.name!r}, "
                f"algorithm {spec.search_spec['algorithm']!r}, "
                f"evaluator {spec.evaluator_spec['type']!r})"
            )
    return EXIT_USAGE if failures else EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        result = StudyResult.load(args.run_dir)
    except (FileNotFoundError, ValueError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(result.report(), indent=2, sort_keys=True))
    else:
        _print_report(result)
    return EXIT_OK


def _cmd_list_plugins(args: argparse.Namespace) -> int:
    snapshot: Dict[str, List[str]] = registry_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return EXIT_OK
    for kind in sorted(snapshot):
        print(f"{kind}:")
        for name in snapshot[kind]:
            print(f"  {name}")
    return EXIT_OK


def _parse_quota(text: str):
    """Parse ``tenant=max_running[:max_queued[:workers]]`` (``-`` = unlimited)."""
    from repro.core.service import TenantQuota

    if "=" not in text:
        raise ValueError(
            f"--quota {text!r}: expected tenant=max_running[:max_queued[:workers]]"
        )
    tenant, _, spec = text.partition("=")
    fields = spec.split(":")
    if not tenant or not 1 <= len(fields) <= 3:
        raise ValueError(
            f"--quota {text!r}: expected tenant=max_running[:max_queued[:workers]]"
        )
    values = []
    for part in fields + [""] * (3 - len(fields)):
        if part in ("", "-"):
            values.append(None)
        else:
            values.append(int(part))  # ValueError propagates with context below
    return tenant, TenantQuota(
        max_running=values[0], max_queued=values[1], workers=values[2]
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.core.server import start_server
    from repro.core.service import OptimizationService

    quotas = {}
    try:
        for text in args.quota or []:
            tenant, quota = _parse_quota(text)
            quotas[tenant] = quota
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        service = OptimizationService(
            args.state_dir,
            max_concurrent_studies=args.max_concurrent,
            worker_budget=args.worker_budget,
            policy=args.policy,
            quotas=quotas,
            preemption=not args.no_preemption,
        )
        server = start_server(service, args.host, args.port, verbose=args.verbose)
    except (ValueError, KeyError) as exc:  # bad policy name / limits / port
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # address in use, permission denied
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"serving on {server.url} (state dir {service.state_dir})", flush=True)

    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    done.wait()
    # Clean shutdown: stop accepting HTTP, park running studies at their
    # next iteration boundary (resumable checkpoints + journal), exit 0.
    print("shutting down: parking running studies at checkpoint", flush=True)
    server.shutdown()
    service.shutdown(park_running=True)
    return EXIT_OK


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.core.client import ServiceClient, ServiceHTTPError

    scenario_path = Path(args.scenario)
    try:
        scenario = Scenario.from_file(scenario_path)
    except FileNotFoundError:
        print(f"error: {scenario_path}: no such file", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"error: {scenario_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    client = ServiceClient(args.url)

    def _http_exit(exc: ServiceHTTPError) -> int:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if exc.exit_code == 2 else EXIT_FAILED

    try:
        study_id = client.submit(
            scenario.to_dict(), tenant=args.tenant, priority=args.priority
        )
    except ServiceHTTPError as exc:
        return _http_exit(exc)
    except OSError as exc:
        print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if not args.follow and not args.wait:
        snapshot = client.status(study_id)
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(f"submitted {study_id} ({snapshot['status']})")
        return EXIT_OK
    exit_code: Optional[int] = None
    try:
        if args.follow:
            for event in client.events(study_id):
                print(json.dumps(event, sort_keys=True), flush=True)
                if event.get("event") == "end":
                    exit_code = event.get("exit_code")
        snapshot = client.wait(study_id)
        if exit_code is None:
            exit_code = snapshot.get("exit_code")
        # With --follow, stdout is a pure NDJSON event stream — route the
        # human-readable summary to stderr so pipelines can consume it.
        out = sys.stderr if args.follow else sys.stdout
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True), file=out)
        elif snapshot["status"] in ("complete", "degraded"):
            report = client.report(study_id)
            print(
                f"study {study_id} {snapshot['status']}: "
                f"{report['n_evaluations']} evaluations, "
                f"{report['n_pareto']} Pareto points (artifacts: {snapshot['run_dir']})",
                file=out,
            )
        else:
            print(
                f"error: study {study_id} {snapshot['status']}"
                + (f": {snapshot['error']}" if snapshot.get("error") else ""),
                file=sys.stderr,
            )
    except ServiceHTTPError as exc:
        return _http_exit(exc)
    except OSError as exc:
        print(f"error: lost connection to {args.url}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_FAILED if exit_code is None else int(exit_code)


def _cmd_eval_worker(args: argparse.Namespace) -> int:
    from repro.core.transport import EvalWorker, HandshakeError, TransportError

    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host:
        print(f"error: --connect expects HOST:PORT, got {args.connect!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --connect port must be an integer, got {port_text!r}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 < port <= 65535:
        print(f"error: --connect port out of range: {port}", file=sys.stderr)
        return EXIT_USAGE
    if args.max_tasks is not None and args.max_tasks < 1:
        print("error: --max-tasks must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    # Import the evaluators before joining: a spec that arrives mid-study
    # then builds without compiling a module.
    load_builtin_plugins()
    worker = EvalWorker(
        host,
        port,
        name=args.name,
        connect_timeout_s=args.connect_timeout,
        max_tasks=args.max_tasks,
    )
    try:
        worker_id = worker.connect()
    except (HandshakeError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    # Parsed by supervisors and the SIGKILL drill: the worker is live.
    print(f"eval-worker {worker_id} serving {host}:{port}", flush=True)
    clean = worker.run()
    if clean:
        if not args.quiet:
            print(f"eval-worker {worker_id}: broker finished, exiting")
        return EXIT_OK
    print(f"error: eval-worker {worker_id} lost the broker at {host}:{port}", file=sys.stderr)
    return EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative multi-objective design-space exploration (HyperMapper reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and persist a run directory")
    p_run.add_argument("scenario", help="path to a .json or .toml scenario")
    p_run.add_argument("--run-dir", help="run directory (default: runs/<scenario name>)")
    p_run.add_argument("--seed", type=int, help="override the scenario's seed")
    p_run.add_argument("--force", action="store_true", help="overwrite an existing run directory")
    p_run.add_argument("--quiet", action="store_true", help="suppress the report printout")
    p_run.set_defaults(fn=_cmd_run)

    p_resume = sub.add_parser("resume", help="continue a run from its checkpoint")
    p_resume.add_argument("run_dir", help="run directory written by 'run'")
    p_resume.add_argument("--quiet", action="store_true", help="suppress the report printout")
    p_resume.set_defaults(fn=_cmd_resume)

    p_sweep = sub.add_parser(
        "sweep",
        help="expand a sweep spec and drain every point as one lease-holding worker "
        "(sweep-worker processes may join the same directory)",
    )
    p_sweep.add_argument("spec", help="path to a .json or .toml sweep spec")
    p_sweep.add_argument("--sweep-dir", help="sweep directory (default: runs/<sweep name>)")
    p_sweep.add_argument(
        "--max-concurrent", type=int, help="override the spec's max_concurrent_studies"
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="re-run points whose run dirs are not complete (from their checkpoints) "
        "and keep the rest",
    )
    p_sweep.add_argument(
        "--force",
        action="store_true",
        help="delete an existing sweep's points and leases and start over",
    )
    p_sweep.add_argument("--quiet", action="store_true", help="suppress the report printout")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_sweep_report = sub.add_parser(
        "sweep-report", help="recompute and print the comparison report of a sweep"
    )
    p_sweep_report.add_argument("sweep_dir", help="sweep directory written by 'sweep'")
    p_sweep_report.add_argument("--json", action="store_true", help="emit the raw comparison JSON")
    p_sweep_report.add_argument(
        "--no-write", action="store_true", help="do not refresh comparison.json/comparison.md"
    )
    p_sweep_report.set_defaults(fn=_cmd_sweep_report)

    p_worker = sub.add_parser(
        "sweep-worker",
        help="join a lease-coordinated sweep directory as one worker process",
    )
    p_worker.add_argument("sweep_dir", help="shared sweep directory (one per sweep)")
    p_worker.add_argument(
        "--spec",
        help="sweep spec file; creates the sweep manifest if the directory is "
        "new, otherwise must match the existing one",
    )
    p_worker.add_argument("--owner", help="lease owner id (default: host:pid:nonce)")
    p_worker.add_argument(
        "--ttl", type=float, default=30.0, help="lease time-to-live in seconds (default 30)"
    )
    p_worker.add_argument(
        "--max-concurrent", type=int, help="override the spec's max_concurrent_studies"
    )
    p_worker.add_argument(
        "--max-points", type=int, help="stop after claiming this many points"
    )
    p_worker.add_argument(
        "--hold-after-claim",
        type=float,
        default=0.0,
        help="seconds to hold each claim before starting the study (crash-drill "
        "hook: widens the kill window deterministically; artifacts unaffected)",
    )
    p_worker.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_worker.set_defaults(fn=_cmd_sweep_worker)

    p_eval_worker = sub.add_parser(
        "eval-worker",
        help="join a study's evaluation broker as one socket-backend worker",
    )
    p_eval_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="broker address (the study's executor.transport, or its announce file)",
    )
    p_eval_worker.add_argument("--name", help="worker name shown in broker diagnostics")
    p_eval_worker.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to retry the initial connection (default 30)",
    )
    p_eval_worker.add_argument(
        "--max-tasks", type=int, help="exit cleanly after serving this many evaluations"
    )
    p_eval_worker.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_eval_worker.set_defaults(fn=_cmd_eval_worker)

    p_doctor = sub.add_parser(
        "doctor", help="detect and repair crash residue in a run or sweep directory"
    )
    p_doctor.add_argument("path", help="run or sweep directory to examine")
    p_doctor.add_argument(
        "--dry-run", action="store_true", help="report findings without repairing anything"
    )
    p_doctor.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_doctor.set_defaults(fn=_cmd_doctor)

    p_validate = sub.add_parser("validate", help="validate scenario / sweep files")
    p_validate.add_argument("scenarios", nargs="+", help="scenario or sweep files to check")
    p_validate.set_defaults(fn=_cmd_validate)

    p_report = sub.add_parser("report", help="print the report of a persisted run")
    p_report.add_argument("run_dir", help="run directory written by 'run'")
    p_report.add_argument("--json", action="store_true", help="emit the raw report JSON")
    p_report.set_defaults(fn=_cmd_report)

    p_list = sub.add_parser("list-plugins", help="show every registered plugin name")
    p_list.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_list.set_defaults(fn=_cmd_list_plugins)

    p_serve = sub.add_parser(
        "serve", help="run the always-on optimization service (HTTP front door)"
    )
    p_serve.add_argument(
        "--state-dir",
        default="runs/service",
        help="durable service state: queue journal + one run dir per study "
        "(default runs/service); reuse it to resume after a crash",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    p_serve.add_argument(
        "--port", type=int, default=8765, help="bind port (default 8765; 0 = ephemeral)"
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=1,
        help="study slots running at once (default 1)",
    )
    p_serve.add_argument(
        "--worker-budget",
        type=int,
        help="total evaluation workers split fairly across running studies",
    )
    p_serve.add_argument(
        "--policy",
        default="preempting",
        help="admission policy from the schedule_policy registry (default 'preempting')",
    )
    p_serve.add_argument(
        "--quota",
        action="append",
        metavar="TENANT=RUNNING[:QUEUED[:WORKERS]]",
        help="per-tenant limits ('-' = unlimited field); repeatable",
    )
    p_serve.add_argument(
        "--no-preemption",
        action="store_true",
        help="never park running studies for higher-priority submissions",
    )
    p_serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    p_serve.set_defaults(fn=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a scenario to a running service over HTTP"
    )
    p_submit.add_argument("scenario", help="path to a .json or .toml scenario")
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8765", help="service base URL"
    )
    p_submit.add_argument("--tenant", default="default", help="tenant to bill the study to")
    p_submit.add_argument(
        "--priority", type=int, default=0, help="admission priority (higher first)"
    )
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the study finishes; exit with its code"
    )
    p_submit.add_argument(
        "--follow",
        action="store_true",
        help="stream NDJSON progress events until the study finishes (implies --wait)",
    )
    p_submit.add_argument("--json", action="store_true", help="emit the final snapshot as JSON")
    p_submit.set_defaults(fn=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return int(args.fn(args))


__all__ = ["build_parser", "main"]
