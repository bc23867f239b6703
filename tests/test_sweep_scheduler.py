"""Tests for the sweep + multi-tenant scheduler subsystem.

Acceptance criteria covered:

* **per-point bit-identity** — for a 2-axis sweep, each point's persisted
  ``history.jsonl`` under ``max_concurrent_studies=4`` equals the standalone
  ``Study.run`` history of the same scenario,
* **killed-sweep resume** — resuming completes only the unfinished points
  (finished ones are reloaded, not re-run),
* **crash isolation** — an evaluator that raises on one point leaves the
  manifest with that failure recorded while every sibling completes, and the
  CLI exit codes / ``sweep-report`` reflect the partial sweep.
"""

import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.core.scheduler import fair_share_policy, map_ordered
from repro.core.service import OptimizationService
from repro.core.study import Study, StudyResult, run_status
from repro.core.sweep import (
    LEASES_DIR,
    SweepError,
    SweepSpec,
    build_comparison,
    load_manifest,
    point_id,
    run_sweep,
)
from test_artifact_contract import build_golden_sweep, golden_evaluate, golden_spec

SPACE = {
    "parameters": [
        {"type": "ordinal", "name": "a", "values": [1, 2, 4, 8], "default": 1},
        {"type": "ordinal", "name": "b", "values": [0.1, 0.2, 0.4], "default": 0.1},
        {"type": "boolean", "name": "fast", "default": False},
    ]
}


def toy_evaluate(config):
    a, b, fast = float(config["a"]), float(config["b"]), bool(config["fast"])
    return {
        "err": 0.05 * a + 0.3 * b + (0.25 if fast else 0.0),
        "cost": 1.0 / a + 0.5 * b + (0.0 if fast else 0.2),
    }


def base_scenario(**search_overrides):
    search = {"algorithm": "random", "budget": 8}
    search.update(search_overrides)
    return {
        "schema_version": 1,
        "name": "toy",
        "space": SPACE,
        "objectives": [{"name": "err"}, {"name": "cost"}],
        "evaluator": {"type": "function"},
        "search": search,
        "seed": 3,
    }


def toy_sweep(**overrides):
    spec = {
        "schema_version": 1,
        "name": "toy-sweep",
        "base": base_scenario(),
        "axes": {"seed": [3, 5], "search.budget": [6, 8]},
        "scheduler": {"max_concurrent_studies": 4},
    }
    spec.update(overrides)
    return spec


def hist_dump(result_or_history):
    history = getattr(result_or_history, "history", result_or_history)
    return [(dict(r.config), r.metrics, r.source, r.iteration) for r in history.records]


class TestSweepSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        spec = SweepSpec.from_dict(toy_sweep())
        points = spec.expand()
        assert [p.point_id for p in points] == [
            "000-seed-3-budget-6",
            "001-seed-3-budget-8",
            "002-seed-5-budget-6",
            "003-seed-5-budget-8",
        ]
        # Last axis fastest, first axis slowest (cartesian, declaration order).
        assert [p.overrides for p in points] == [
            {"seed": 3, "search.budget": 6},
            {"seed": 3, "search.budget": 8},
            {"seed": 5, "search.budget": 6},
            {"seed": 5, "search.budget": 8},
        ]
        assert spec.n_points == 4
        again = SweepSpec.from_dict(toy_sweep()).expand()
        assert [p.scenario.to_dict() for p in points] == [p.scenario.to_dict() for p in again]

    def test_overrides_apply_to_scenarios(self):
        points = SweepSpec.from_dict(toy_sweep()).expand()
        assert points[0].scenario.seed == 3
        assert points[2].scenario.seed == 5
        assert points[1].scenario.search_spec["budget"] == 8

    def test_section_valued_axis_swaps_algorithms(self):
        spec = SweepSpec.from_dict(
            toy_sweep(
                axes={
                    "search": [
                        {"algorithm": "random", "budget": 6},
                        {"algorithm": "bandit", "budget": 8, "batch_size": 4},
                    ]
                }
            )
        )
        points = spec.expand()
        assert [p.scenario.search_spec["algorithm"] for p in points] == ["random", "bandit"]
        assert [p.point_id for p in points] == ["000-search-random", "001-search-bandit"]

    def test_explicit_points_append_after_axes(self):
        spec = SweepSpec.from_dict(toy_sweep(points=[{"seed": 99}]))
        points = spec.expand()
        assert len(points) == 5
        assert points[-1].overrides == {"seed": 99}
        assert points[-1].scenario.seed == 99

    def test_round_trip_and_equality(self):
        spec = SweepSpec.from_dict(toy_sweep())
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.pop("base"), "/base"),
            (lambda d: d.update(schema_version=99), "/schema_version"),
            (lambda d: d.update(axes={}, points=[]), "/axes"),
            (lambda d: d.update(axes={"seed": []}), "/axes/seed"),
            (lambda d: d.update(scheduler={"policy": "nope"}), "/scheduler/policy"),
            (lambda d: d.update(scheduler={"max_concurrent_studies": 0}),
             "/scheduler/max_concurrent_studies"),
            (lambda d: d.update(scheduler={"worker_budget": 0}), "/scheduler/worker_budget"),
            (lambda d: d.update(scheduler={"retry_backoff_s": -0.5}),
             "/scheduler/retry_backoff_s"),
            (lambda d: d.update(bogus=1), "/bogus"),
            (lambda d: d["base"].pop("evaluator"), "/base/evaluator"),
            (lambda d: d["base"]["search"].update(algorithm="nope"), "/base/search/algorithm"),
        ],
    )
    def test_validation_errors_carry_pointer_paths(self, mutate, path):
        data = toy_sweep()
        mutate(data)
        with pytest.raises(SweepError) as exc_info:
            SweepSpec.from_dict(data)
        assert exc_info.value.path == path

    def test_invalid_point_strict_vs_lenient(self):
        spec = SweepSpec.from_dict(toy_sweep(points=[{"search.algorithm": "nope"}]))
        # The pointer names the explicit point's own index (not its position
        # in the full expansion after the 4 axis combos).
        with pytest.raises(SweepError) as exc_info:
            spec.expand(strict=True)
        assert exc_info.value.path == "/points/0"
        points = spec.expand(strict=False)
        assert points[-1].scenario is None
        assert "unknown search algorithm" in points[-1].error

    def test_invalid_axis_value_points_at_axes(self):
        spec = SweepSpec.from_dict(toy_sweep(axes={"search.algorithm": ["random", "nope"]}))
        with pytest.raises(SweepError) as exc_info:
            spec.expand(strict=True)
        assert exc_info.value.path == "/axes"

    def test_point_id_is_filesystem_safe(self):
        pid = point_id(7, {"evaluator.device": "weird/../name with spaces"})
        assert pid.startswith("007-")
        assert "/" not in pid and " " not in pid


class TestSweepRun:
    def test_per_point_bit_identity_under_concurrency(self, tmp_path):
        """Acceptance: 2-axis sweep at k=4 == each scenario run alone."""
        spec = SweepSpec.from_dict(toy_sweep())
        sweep_dir = tmp_path / "sweep"
        result = run_sweep(spec, sweep_dir, evaluate=toy_evaluate, max_concurrent=4)
        assert result.status == "complete"
        for p in spec.expand():
            alone = Study(p.scenario, evaluate=toy_evaluate).run()
            loaded = StudyResult.load(sweep_dir / "points" / p.point_id)
            assert hist_dump(loaded) == hist_dump(alone), p.point_id
            # The persisted stream agrees byte-for-byte with the records.
            lines = [
                json.loads(l)
                for l in (sweep_dir / "points" / p.point_id / "history.jsonl")
                .read_text()
                .splitlines()
            ]
            assert lines == [r.to_dict() for r in alone.history.records]

    def test_sweep_dir_layout_and_manifest(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        result = run_sweep(toy_sweep(), sweep_dir, evaluate=toy_evaluate)
        for name in ("sweep.json", "comparison.json", "comparison.md"):
            assert (sweep_dir / name).exists(), name
        manifest = load_manifest(sweep_dir)
        assert manifest["sweep_dir_version"] == 1
        assert manifest["status"] == "complete"
        assert manifest["n_points"] == 4 and manifest["n_complete"] == 4
        for entry in manifest["points"]:
            run_dir = sweep_dir / entry["run_dir"]
            for name in ("scenario.json", "run.json", "history.jsonl", "pareto.json"):
                assert (run_dir / name).exists(), (entry["point_id"], name)
        # Re-running the same dir without force/resume is refused.
        with pytest.raises(SweepError, match="already holds a sweep"):
            run_sweep(toy_sweep(), sweep_dir, evaluate=toy_evaluate)
        assert result.manifest == manifest

    def test_comparison_aggregates_fronts_and_curves(self, tmp_path):
        import numpy as np

        from repro.core.pareto import hypervolume_2d

        sweep_dir = tmp_path / "sweep"
        result = run_sweep(toy_sweep(), sweep_dir, evaluate=toy_evaluate)
        comparison = result.comparison
        # The incremental quality curve equals the brute-force prefix
        # hypervolume over the full (feasible) history.
        ref = comparison["reference"]
        for p in result.spec.expand():
            loaded = result.result_for(p.point_id)
            matrix = loaded.history.objective_matrix(canonical=True)
            brute = [
                [i, float(hypervolume_2d(matrix[:i], ref))]
                for i in range(1, len(loaded.history) + 1)
            ]
            assert loaded.quality_curve(ref) == brute
        assert comparison["objectives"] == ["err", "cost"]
        assert len(comparison["reference"]) == 2
        assert len(comparison["ranking"]) == 4
        for entry in comparison["points"]:
            assert entry["status"] == "complete"
            assert entry["n_evaluations"] in (6, 8)
            assert entry["hypervolume"] >= 0.0
            curve = entry["quality_curve"]
            assert [i for i, _ in curve] == list(range(1, entry["n_evaluations"] + 1))
            hvs = [hv for _, hv in curve]
            assert hvs == sorted(hvs)  # quality never degrades with budget
            assert hvs[-1] == pytest.approx(entry["hypervolume"])
        # Recomputing from artifacts alone gives the same report.
        assert build_comparison(sweep_dir, write=False) == comparison

    def test_resume_completes_only_unfinished_points(self, tmp_path):
        """Acceptance: killed-sweep resume re-runs only what is missing."""
        sweep_dir = tmp_path / "sweep"
        spec = SweepSpec.from_dict(toy_sweep())
        first = run_sweep(spec, sweep_dir, evaluate=toy_evaluate)
        reference = {
            p.point_id: hist_dump(first.result_for(p.point_id)) for p in spec.expand()
        }
        # "Kill": one point's artifacts vanish entirely.
        killed = spec.expand()[1].point_id
        shutil.rmtree(sweep_dir / "points" / killed)

        calls = []

        def counting_evaluate(config):
            calls.append(dict(config))
            return toy_evaluate(config)

        resumed = run_sweep(spec, sweep_dir, evaluate=counting_evaluate, resume=True)
        assert resumed.status == "complete"
        assert resumed.comparison["status"] == "complete"
        # Only the killed point re-ran; the others were reloaded from disk.
        reused = {k for k, o in resumed.outcomes.items() if o.reused}
        assert reused == set(reference) - {killed}
        assert len(calls) == 8  # the killed point's budget, nothing else
        # And the re-run point is bit-identical to the original.
        assert hist_dump(resumed.result_for(killed)) == reference[killed]

    def test_maximize_objective_hypervolume_is_not_zeroed(self, tmp_path):
        """Regression: the shared reference must sit on the *worse* side of a
        maximized objective's (negative-canonical) values."""

        def fps_evaluate(config):
            m = toy_evaluate(config)
            return {"err": m["err"], "fps": 1.0 / m["cost"]}

        spec = toy_sweep(
            base=dict(
                base_scenario(),
                objectives=[{"name": "err"}, {"name": "fps", "minimize": False}],
            ),
            axes={"seed": [3, 5]},
        )
        result = run_sweep(spec, tmp_path / "sweep", evaluate=fps_evaluate)
        assert result.status == "complete"
        for entry in result.comparison["points"]:
            # Every point found feasible configurations, so every front must
            # dominate the shared reference somewhere.
            assert entry["hypervolume"] > 0.0, entry["point_id"]

    def test_resume_refuses_mismatched_spec(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        run_sweep(toy_sweep(), sweep_dir, evaluate=toy_evaluate)
        other = toy_sweep(axes={"seed": [3, 5, 7]})
        with pytest.raises(SweepError, match="does not match the manifest"):
            run_sweep(other, sweep_dir, evaluate=toy_evaluate, resume=True)


class TestOneSweepPath:
    """``run_sweep`` is one in-process lease worker: resume and force act
    through the manifest protocol that ``repro sweep-worker`` shares."""

    @staticmethod
    def counting():
        calls = []

        def evaluate(config):
            calls.append(config)
            return golden_evaluate(config)

        return calls, evaluate

    def test_force_reruns_every_point_from_a_clean_slate(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        build_golden_sweep(sweep_dir)
        before = {
            p.name: (p / "history.jsonl").read_bytes() for p in (sweep_dir / "points").iterdir()
        }
        for point in (sweep_dir / "points").iterdir():
            (point / "marker").write_text("from the previous sweep")
        stale = sweep_dir / LEASES_DIR / "000-seed-1-budget-5.lease.json"
        stale.parent.mkdir(exist_ok=True)
        stale.write_text("{}")
        calls, evaluate = self.counting()
        result = run_sweep(golden_spec(), sweep_dir, evaluate=evaluate, force=True)
        assert len(calls) == 24
        assert not list((sweep_dir / "points").glob("*/marker"))
        assert not list((sweep_dir / LEASES_DIR).glob("*.lease.json"))
        assert result.status == "complete"
        assert not any(o.reused for o in result.outcomes.values())
        assert [e["generation"] for e in result.manifest["points"]] == [1, 1, 1, 1]
        assert {
            p.name: (p / "history.jsonl").read_bytes() for p in (sweep_dir / "points").iterdir()
        } == before

    def test_resume_retries_a_failed_point_from_its_run_dir(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        n_calls = []

        def flaky(config):
            # One slot drains points in manifest order: calls 6-12 belong to
            # 001-seed-1-budget-7, which fails at its third evaluation.
            n_calls.append(config)
            if len(n_calls) == 8:
                raise RuntimeError("board caught fire")
            return golden_evaluate(config)

        first = run_sweep(golden_spec(), sweep_dir, evaluate=flaky, max_concurrent=1)
        failed = sweep_dir / "points" / "001-seed-1-budget-7"
        assert first.status == "partial"
        assert [e["status"] for e in first.manifest["points"]] == [
            "complete", "failed", "complete", "complete",
        ]
        assert run_status(failed) == "failed"

        calls, evaluate = self.counting()
        retried = run_sweep(golden_spec(), sweep_dir, evaluate=evaluate, resume=True)
        assert retried.status == "complete"
        assert retried.comparison["status"] == "complete"
        assert len(calls) == 7  # the failed point only; the rest are reused
        assert not retried.outcomes["001-seed-1-budget-7"].reused
        entry = retried.manifest["points"][1]
        assert (entry["status"], entry["error"], entry["generation"]) == ("complete", None, 2)
        reference = tmp_path / "reference"
        build_golden_sweep(reference)
        assert (failed / "history.jsonl").read_bytes() == (
            reference / "points" / "001-seed-1-budget-7" / "history.jsonl"
        ).read_bytes()


class TestFaultInjection:
    """Satellite: one failed point never poisons the sweep."""

    def poisoned_evaluate(self, config):
        if bool(config["fast"]) and float(config["a"]) >= 8:
            raise RuntimeError("board caught fire")
        return toy_evaluate(config)

    def test_failed_point_is_recorded_and_siblings_finish(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        # seed 3 with budget 8 hits the poisoned corner of the space; other
        # points draw different configurations and survive.
        spec = toy_sweep(axes={"seed": [3, 5], "search.budget": [6, 8]})
        result = run_sweep(spec, sweep_dir, evaluate=self.poisoned_evaluate)
        manifest = load_manifest(sweep_dir)
        statuses = {p["point_id"]: p["status"] for p in manifest["points"]}
        assert "failed" in statuses.values()
        assert "complete" in statuses.values()
        assert result.status == "partial"
        for entry in manifest["points"]:
            if entry["status"] == "failed":
                assert "board caught fire" in entry["error"]
            else:
                run_dir = sweep_dir / entry["run_dir"]
                assert (run_dir / "history.jsonl").exists()
                assert StudyResult.load(run_dir).history  # intact siblings
        # The comparison report reflects the partial sweep.
        comparison = build_comparison(sweep_dir, write=False)
        assert comparison["status"] == "partial"
        assert comparison["n_failed"] == result.n_failed > 0

    def test_invalid_point_is_recorded_without_poisoning(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        spec = toy_sweep(points=[{"search.algorithm": "nope"}])
        result = run_sweep(spec, sweep_dir, evaluate=toy_evaluate)
        manifest = load_manifest(sweep_dir)
        by_status = {}
        for p in manifest["points"]:
            by_status.setdefault(p["status"], []).append(p["point_id"])
        assert len(by_status["complete"]) == 4
        assert len(by_status["invalid"]) == 1
        assert result.status == "partial"

    def test_cli_sweep_exit_codes_reflect_partial_sweep(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        # A bandit point whose budget is smaller than its batch size fails at
        # runtime inside the engine — the CLI-reachable failure injection.
        spec = toy_sweep(
            base=dict(base_scenario(), evaluator={
                "type": "slambench",
                "workload": "kfusion",
                "device": "odroid-xu3",
                "n_frames": 8,
                "width": 32,
                "height": 24,
                "dataset_seed": 3,
            }, space=None, objectives=None),
            axes={"seed": [3, 5]},
            points=[{"search": {"algorithm": "bandit", "budget": 2, "batch_size": 6}}],
        )
        spec_path.write_text(json.dumps(spec))
        sweep_dir = tmp_path / "sw"
        assert cli_main(["sweep", str(spec_path), "--sweep-dir", str(sweep_dir), "--quiet"]) == 1
        assert "partial" in capsys.readouterr().err
        manifest = load_manifest(sweep_dir)
        statuses = [p["status"] for p in manifest["points"]]
        assert statuses == ["complete", "complete", "failed"]
        # sweep-report exits non-zero on a partial sweep, zero text output lost.
        assert cli_main(["sweep-report", str(sweep_dir), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "partial"
        assert report["n_complete"] == 2
        # Usage errors are exit code 2.
        assert cli_main(["sweep-report", str(tmp_path / "nowhere")]) == 2
        assert cli_main(["sweep", str(tmp_path / "missing.json")]) == 2

    def test_unreadable_point_makes_the_report_partial(self, tmp_path, capsys):
        """Regression: a point whose artifacts vanished after the sweep must
        downgrade the report (and sweep-report's exit code), not echo the
        manifest's stale 'complete'."""
        sweep_dir = tmp_path / "sweep"
        run_sweep(toy_sweep(axes={"seed": [3, 5]}), sweep_dir, evaluate=toy_evaluate)
        manifest = load_manifest(sweep_dir)
        (sweep_dir / manifest["points"][0]["run_dir"] / "scenario.json").unlink()
        comparison = build_comparison(sweep_dir, write=False)
        assert comparison["status"] == "partial"
        assert comparison["n_complete"] == 1 and comparison["n_failed"] == 1
        assert comparison["points"][0]["status"] == "unreadable"
        assert cli_main(["sweep-report", str(sweep_dir), "--no-write", "--quiet"][:3]) == 1

    def test_cli_bad_scheduler_config_is_a_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(toy_sweep(base=dict(base_scenario(), evaluator={
            "type": "slambench", "workload": "kfusion", "device": "odroid-xu3",
            "n_frames": 8, "width": 32, "height": 24, "dataset_seed": 3,
        }, space=None, objectives=None), axes={"seed": [3]})))
        code = cli_main(
            ["sweep", str(spec_path), "--sweep-dir", str(tmp_path / "sw"), "--max-concurrent", "0"]
        )
        assert code == 2
        assert "max_concurrent_studies" in capsys.readouterr().err

    def test_cli_validate_expands_sweep_points(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(
            json.dumps(toy_sweep(axes={"search.algorithm": ["random", "nope"]}))
        )
        assert cli_main(["validate", str(spec_path)]) == 2
        assert "unknown search algorithm" in capsys.readouterr().err


class TestScheduler:
    def test_fair_share_policy_round_robins_tenants(self):
        subs = [SimpleNamespace(tenant=tenant) for tenant in ("alice", "bob") for _ in range(2)]
        # alice already has 2 admitted studies, bob none: bob goes first.
        pick = fair_share_policy(subs, {"alice": 2})
        assert subs[pick].tenant == "bob"
        # Even counts: earliest submission wins (deterministic tie-break).
        assert fair_share_policy(subs, {"alice": 1, "bob": 1}) == 0

    def test_worker_budget_fair_share_does_not_change_results(self, tmp_path):
        spec = SweepSpec.from_dict(
            toy_sweep(
                axes={"seed": [3]},
                scheduler={"max_concurrent_studies": 2, "worker_budget": 8},
            )
        )
        (point,) = spec.expand()
        alone = Study(point.scenario, evaluate=toy_evaluate).run(run_dir=tmp_path / "alone")
        result = run_sweep(spec, tmp_path / "sweep", evaluate=toy_evaluate)
        assert result.result_for(point.point_id).engine_info["n_workers"] == 4  # 8 // 2
        history = tmp_path / "sweep" / "points" / point.point_id / "history.jsonl"
        assert history.read_bytes() == (tmp_path / "alone" / "history.jsonl").read_bytes()

    def test_map_ordered_matches_serial(self):
        items = list(range(20))
        fn = lambda x: x * x
        assert map_ordered(fn, items, max_concurrent=4) == [fn(x) for x in items]
        assert map_ordered(fn, items, max_concurrent=1) == [fn(x) for x in items]


class TestLiveScheduling:
    """The per-point bit-identity invariant, extended to the live path: the
    service — concurrent slots, priorities, preemption and all — and a sweep
    persist the same ``history.jsonl`` bytes as standalone ``Study.run``."""

    def test_service_and_sweep_match_standalone(self, tmp_path):
        seeds = (3, 5, 7)
        scenarios = [base_scenario(budget=6) | {"seed": seed} for seed in seeds]
        standalone = [
            Study(s, evaluate=toy_evaluate).run(
                run_dir=tmp_path / "standalone" / str(s["seed"])
            )
            for s in scenarios
        ]
        sweep = run_sweep(
            toy_sweep(
                base=base_scenario(budget=6),
                axes={"seed": list(seeds)},
                scheduler={"max_concurrent_studies": 3},
            ),
            tmp_path / "sweep",
            evaluate=toy_evaluate,
        )
        service = OptimizationService(
            tmp_path / "live",
            max_concurrent_studies=3,
            evaluate=toy_evaluate,
            journal_fsync=False,
        ).start()
        try:
            ids = [
                service.submit(s, tenant=f"t{i % 2}", priority=i)
                for i, s in enumerate(scenarios)
            ]
            for ref, point, sid in zip(standalone, sweep.manifest["points"], ids):
                expected = (Path(ref.run_dir) / "history.jsonl").read_bytes()
                assert service.wait(sid, timeout=120) == "complete"
                live = Path(service.status(sid)["run_dir"]) / "history.jsonl"
                assert live.read_bytes() == expected
                swept = tmp_path / "sweep" / point["run_dir"] / "history.jsonl"
                assert swept.read_bytes() == expected
        finally:
            service.shutdown()


class TestExperimentSweeps:
    def test_fig3_sweep_point_matches_standalone_run(self, tmp_path):
        from repro.core.sweep import SweepSpec as _SweepSpec
        from repro.experiments.common import SMOKE
        from repro.experiments.fig3_kfusion_dse import (
            fig3_sweep_spec,
            run_fig3,
            run_fig3_device_sweep,
        )
        from repro.slambench.workloads import get_workload

        runner = get_workload("kfusion").make_runner(
            n_frames=SMOKE.n_frames, width=SMOKE.width, height=SMOKE.height, dataset_seed=7
        )
        platforms = ("odroid-xu3",)
        sweep = run_fig3_device_sweep(
            str(tmp_path / "sweep"), platforms=platforms, scale=SMOKE, runner=runner
        )
        assert sweep.status == "complete"
        pid = _SweepSpec.from_dict(fig3_sweep_spec(platforms, SMOKE)).expand()[0].point_id
        standalone = run_fig3("odroid-xu3", scale=SMOKE, runner=runner)
        point = sweep.result_for(pid)
        assert len(point.history) == standalone["n_random_samples"] + standalone[
            "n_active_learning_samples"
        ]
        assert [
            [float(v) for v in r.objective_values(point.objectives)] for r in point.pareto
        ] == [
            [p["max_ate_m"], p["runtime_s"]] for p in standalone["active_learning_front"]
        ]
