#!/usr/bin/env python3
"""Quickstart: tune KinectFusion's algorithmic parameters for an embedded GPU.

This is the paper's core use case in miniature, driven entirely by the
declarative scenario API: ``examples/scenarios/quickstart.json`` describes
the design space (via the ``kfusion`` workload), the device, the search and
the budget; the :class:`~repro.core.study.Study` front door compiles it into
the engine stack, runs it, and persists a versioned run directory
(scenario.json, history.jsonl, pareto.json, report.json, checkpoints/).

The same scenario runs from the command line:

    python -m repro run examples/scenarios/quickstart.json
    python -m repro report runs/quickstart
    python -m repro resume runs/quickstart

Run with:  python examples/quickstart.py
"""

import os
import tempfile

from repro.core.study import Study, StudyResult
from repro.utils.tables import format_table

SCENARIO = os.path.join(os.path.dirname(__file__), "scenarios", "quickstart.json")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = os.path.join(tmp, "quickstart-run")

        # 1. Compile + run the declarative scenario.  The kfusion workload
        #    supplies the paper's design space and objectives; the odroid-xu3
        #    device model supplies the runtime side of the trade-off.
        study = Study(SCENARIO)
        result = study.run(run_dir=run_dir)
        space = result.space
        print(
            f"KFusion design space: {space.dimension} parameters, "
            f"{space.cardinality:,.0f} configurations"
        )
        print(
            f"run artifacts: {sorted(os.path.basename(p) for p in os.listdir(run_dir))}"
        )

        # 2. The run directory reloads into a StudyResult without re-running
        #    anything — the persisted history.jsonl is the source of truth.
        loaded = StudyResult.load(run_dir)
        assert loaded.history.to_dicts() == result.history.to_dicts()
        report = loaded.report()
        print(
            f"report (from history.jsonl): {report['n_evaluations']} evaluations, "
            f"{report['n_feasible']} feasible, {report['n_pareto']} Pareto points"
        )

        # 3. Kill-and-resume drill: resuming a finished run replays the
        #    checkpoint to the bit-identical result, exactly as a crashed
        #    hardware campaign would continue.
        resumed = Study.resume(run_dir)
        assert resumed.history.to_dicts() == result.history.to_dicts()
        print(f"checkpoint/resume: {len(resumed.history)} evaluations reproduced bit-identically")

    # 4. Report the Pareto front.
    rows = []
    for record in result.pareto:
        m = record.metrics
        rows.append(
            [
                f"{m['runtime_s'] * 1000:.1f}",
                f"{1.0 / m['runtime_s']:.1f}",
                f"{m['max_ate_m'] * 100:.2f}",
                record.config["volume_resolution"],
                record.config["compute_size_ratio"],
                record.config["tracking_rate"],
                record.config["integration_rate"],
            ]
        )
    print()
    print(
        format_table(
            rows,
            headers=["ms/frame", "FPS", "max ATE (cm)", "volume", "csr", "track rate", "integ rate"],
            title=f"Pareto front after {len(result.history)} evaluations "
            f"({result.report()['per_source']})",
        )
    )
    best = result.best_by("runtime_s")
    if best is not None:
        print(
            f"\nbest-runtime valid configuration: {best.metrics['runtime_s'] * 1000:.1f} ms/frame "
            f"({1.0 / best.metrics['runtime_s']:.1f} FPS)"
        )


if __name__ == "__main__":
    main()
