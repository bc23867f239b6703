"""Tests for the ``Study`` front door, run-dir persistence, and the CLI.

Acceptance criteria covered:

* scenario JSON -> ``Study.run()`` -> saved run dir -> ``StudyResult.load()``
  reproduces the same Pareto front as the equivalent hand-wired
  ``HyperMapper`` call, bit-identical history included (function evaluator
  and the real slambench path),
* baseline checkpoint/resume: the five baseline state machines resume
  bit-identically (API level), and a killed bandit run continues via
  ``python -m repro resume`` (CLI level),
* ``StudyResult.report`` derives its statistics from the persisted
  ``history.jsonl`` (single source of truth),
* CLI subcommands: run/resume/validate/report/list-plugins.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.baselines import (
    BanditSearch,
    EvolutionarySearch,
    GridSearch,
    LocalSearch,
    RandomSearch,
)
from repro.core.engine import SearchPreempted
from repro.core.history import History
from repro.core.objectives import Objective, ObjectiveSet
from repro.core.optimizer import HyperMapper
from repro.core.parameters import BooleanParameter, CategoricalParameter, OrdinalParameter
from repro.core.registry import registry_snapshot
from repro.core.scenario import SCENARIO_VERSION, Scenario
from repro.core.space import DesignSpace
from repro.core.study import Study, StudyResult, run_in_dir, run_status
from repro.experiments.common import history_stats


@pytest.fixture()
def toy_space():
    return DesignSpace(
        [
            OrdinalParameter("a", [1, 2, 4, 8], default=1),
            OrdinalParameter("b", [0.1, 0.2, 0.4, 0.8], default=0.1),
            BooleanParameter("fast", default=False),
            CategoricalParameter("mode", ["x", "y", "z"], default="x"),
        ],
        name="toy",
    )


@pytest.fixture()
def objectives():
    return ObjectiveSet([Objective("error", limit=0.6), Objective("runtime")])


def toy_evaluate(config):
    a, b, fast = float(config["a"]), float(config["b"]), bool(config["fast"])
    m = {"x": 0.0, "y": 0.05, "z": 0.1}[config["mode"]]
    error = 0.05 * a + 0.3 * b + (0.25 if fast else 0.0) + m
    runtime = 1.0 / a + 0.5 * b + (0.0 if fast else 0.2) + 0.3 * m
    return {"error": error, "runtime": runtime}


def hist_dump(result_or_history):
    history = getattr(result_or_history, "history", result_or_history)
    return [(dict(r.config), r.metrics, r.source, r.iteration) for r in history.records]


def front_dump(result):
    return [(dict(r.config), dict(r.metrics)) for r in result.pareto]


def toy_scenario(toy_space, **search_overrides):
    search = {
        "algorithm": "hypermapper",
        "n_random_samples": 10,
        "max_iterations": 4,
        "pool_size": None,
        "max_samples_per_iteration": 6,
    }
    search.update(search_overrides)
    return {
        "schema_version": SCENARIO_VERSION,
        "name": "toy-study",
        "space": toy_space.to_dict(),
        "objectives": [{"name": "error", "limit": 0.6}, {"name": "runtime"}],
        "evaluator": {"type": "function"},
        "search": search,
        "seed": 3,
    }


HM_KW = dict(n_random_samples=10, max_iterations=4, pool_size=None, max_samples_per_iteration=6, seed=3)


class TestStudyEquivalence:
    def test_study_matches_hand_wired_hypermapper(self, toy_space, objectives, tmp_path):
        run_dir = tmp_path / "run"
        result = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        hand = HyperMapper(toy_space, objectives, toy_evaluate, **HM_KW).run()
        assert hist_dump(result) == hist_dump(hand)
        assert front_dump(result) == [(dict(r.config), dict(r.metrics)) for r in hand.pareto]

        loaded = StudyResult.load(run_dir)
        assert hist_dump(loaded) == hist_dump(hand)
        assert front_dump(loaded) == front_dump(result)
        assert [r.to_dict() for r in loaded.iterations] == [r.to_dict() for r in result.iterations]

    def test_scenario_json_file_round_trip(self, toy_space, tmp_path):
        scenario_path = tmp_path / "toy.json"
        scenario_path.write_text(json.dumps(toy_scenario(toy_space)))
        result = Study(scenario_path, evaluate=toy_evaluate).run(run_dir=tmp_path / "run")
        assert result.scenario.name == "toy-study"
        assert len(result.history) > 0

    def test_history_jsonl_streams_every_record(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        result = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        lines = [json.loads(l) for l in (run_dir / "history.jsonl").read_text().splitlines()]
        assert lines == [r.to_dict() for r in result.history.records]

    def test_run_dir_files_present_and_versioned(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        for name in ("scenario.json", "run.json", "history.jsonl", "pareto.json", "report.json"):
            assert (run_dir / name).exists(), name
        assert (run_dir / "checkpoints" / "engine.json").exists()
        meta = json.loads((run_dir / "run.json").read_text())
        assert meta["run_dir_version"] == 1
        assert meta["status"] == "complete"

    def test_load_rejects_future_run_dir_version(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        meta = json.loads((run_dir / "run.json").read_text())
        meta["run_dir_version"] = 99
        (run_dir / "run.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="run-dir version"):
            StudyResult.load(run_dir)

    def test_study_resume_equals_uninterrupted(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        full = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run()
        # "Kill" after two iterations, then resume with the full scenario.
        Study(toy_scenario(toy_space, max_iterations=2), evaluate=toy_evaluate).run(run_dir=run_dir)
        Scenario.from_dict(toy_scenario(toy_space)).save(run_dir / "scenario.json")
        resumed = Study.resume(run_dir, evaluate=toy_evaluate)
        assert hist_dump(resumed) == hist_dump(full)
        # The persisted artifacts reflect the resumed (complete) run.
        assert hist_dump(StudyResult.load(run_dir)) == hist_dump(full)

    def test_report_derives_from_persisted_history(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        result = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        full_report = result.report()
        assert full_report["n_evaluations"] == len(result.history)
        # Truncate the persisted file: the report must follow the file, not
        # the in-memory objects — history.jsonl is the single source of truth.
        lines = (run_dir / "history.jsonl").read_text().splitlines()
        (run_dir / "history.jsonl").write_text("\n".join(lines[:5]) + "\n")
        assert result.report()["n_evaluations"] == 5
        assert history_stats(result)["n_evaluations"] == 5

    def test_failing_compile_preserves_persisted_history(self, toy_space, tmp_path):
        from repro.core.scenario import ScenarioError

        run_dir = tmp_path / "run"
        Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        before = (run_dir / "history.jsonl").read_text()
        # Resuming a function-evaluator scenario without the host callable
        # fails at compile time — the persisted history must survive intact.
        with pytest.raises(ScenarioError):
            Study.resume(run_dir)
        assert (run_dir / "history.jsonl").read_text() == before

    def test_interrupted_overwrite_leaves_no_stale_artifacts(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)

        def exploding_evaluate(config):
            raise RuntimeError("hardware died")

        # A fresh overwrite that dies mid-run must not leave the previous
        # run's pareto/report/checkpoint lying around to be mixed with the
        # new partial history, and must record the failure.
        with pytest.raises(RuntimeError):
            Study(toy_scenario(toy_space), evaluate=exploding_evaluate).run(run_dir=run_dir)
        assert not (run_dir / "pareto.json").exists()
        assert not (run_dir / "report.json").exists()
        assert not (run_dir / "checkpoints" / "engine.json").exists()
        assert json.loads((run_dir / "run.json").read_text())["status"] == "failed"

    def test_failed_resume_preserves_persisted_history(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        before = (run_dir / "history.jsonl").read_text()
        # Corrupt the engine checkpoint: the resume must fail loudly without
        # touching the previously persisted history.
        (run_dir / "checkpoints" / "engine.json").write_text("{corrupt")
        with pytest.raises(ValueError):
            Study.resume(run_dir, evaluate=toy_evaluate)
        assert (run_dir / "history.jsonl").read_text() == before

    def test_engine_info_reports_injected_executor_shape(self, toy_space, objectives):
        from repro.core.executor import EvaluationExecutor

        with EvaluationExecutor(toy_evaluate, objectives, n_workers=2) as executor:
            result = Study(toy_scenario(toy_space), executor=executor).run()
        assert result.engine_info["n_workers"] == 2

    def test_shared_executor_injection(self, toy_space, objectives):
        from repro.core.executor import EvaluationExecutor

        executor = EvaluationExecutor(toy_evaluate, objectives)
        r1 = Study(toy_scenario(toy_space), executor=executor).run()
        n_after_first = executor.n_evaluations
        r2 = Study(toy_scenario(toy_space), executor=executor).run()
        # The identical seeded run is served entirely from the memo cache.
        assert executor.n_evaluations == n_after_first
        assert hist_dump(r1) == hist_dump(r2)

    def test_budget_section_limits_evaluations(self, toy_space):
        scenario = toy_scenario(toy_space)
        scenario["budget"] = {"max_evaluations": 12}
        result = Study(scenario, evaluate=toy_evaluate).run()
        assert len(result.history) <= 12

    def test_constraints_filter_reported_pareto_front(self, toy_space, tmp_path):
        unconstrained = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run()
        # Pick a bound that splits the unconstrained front.
        runtimes = sorted(r.metrics["runtime"] for r in unconstrained.pareto)
        assert len(runtimes) >= 2
        bound = (runtimes[0] + runtimes[-1]) / 2
        scenario = toy_scenario(toy_space)
        scenario["constraints"] = [{"metric": "runtime", "upper": bound}]
        run_dir = tmp_path / "run"
        constrained = Study(scenario, evaluate=toy_evaluate).run(run_dir=run_dir)
        assert constrained.pareto  # something survives
        assert all(r.metrics["runtime"] <= bound for r in constrained.pareto)
        assert len(constrained.pareto) < len(unconstrained.pareto)
        # Persisted artifacts and reload agree with the filtered front.
        loaded = StudyResult.load(run_dir)
        assert front_dump(loaded) == front_dump(constrained)
        assert loaded.report()["n_pareto"] == len(constrained.pareto)

    def test_overridden_builtin_algorithm_relaxes_validation(self, toy_space):
        from repro.core.registry import SEARCH_REGISTRY, register_search

        original = SEARCH_REGISTRY.get("random")

        def my_random(ctx):  # no builtin marker: pass-through validation
            return original(ctx)

        register_search("random", my_random)
        try:
            # Unknown knobs and a missing budget now pass validation; the
            # builder owns the interpretation (and here delegates onward).
            s = Scenario.from_dict(
                toy_scenario(toy_space, algorithm="random", restarts=3, budget=10)
            )
            assert s.search_spec["restarts"] == 3
        finally:
            register_search("random", original)


def counting(calls):
    """``toy_evaluate`` that records every configuration it is called with."""

    def evaluate(config):
        calls.append(tuple(sorted(dict(config).items())))
        return toy_evaluate(config)

    return evaluate


def read_checkpoint(run_dir):
    return json.loads((run_dir / "checkpoints" / "engine.json").read_text())


class TestHistoryPrefixResume:
    """``history.jsonl`` is the only copy of the records: a resume checks the
    prefix its checkpoint names, cuts the file back to it and appends."""

    def warm_history(self, toy_space, objectives):
        warm = History(objectives)
        for config in toy_space.sample(4, rng=11):
            warm.add(config, toy_evaluate(config), source="warm")
        return warm

    @pytest.mark.parametrize("variant", ["serial", "warm-start", "overlap"])
    def test_resume_truncates_to_checkpoint_prefix(self, toy_space, objectives, tmp_path, variant):
        def scenario(**search):
            s = toy_scenario(toy_space, **search)
            s["checkpoint"] = {"every": 2}
            if variant == "overlap":
                s["executor"] = {"n_workers": 2, "overlap_fraction": 0.5}
            return s

        warm = self.warm_history(toy_space, objectives) if variant == "warm-start" else None
        reference = tmp_path / "uninterrupted"
        Study(scenario(), evaluate=toy_evaluate).run(run_dir=reference, initial_history=warm)

        # Three iterations with a checkpoint every second one: iteration 3's
        # records (and, with overlap, iteration 2's drained stragglers) sit
        # past the prefix the last checkpoint names.
        run_dir = tmp_path / "run"
        Study(scenario(max_iterations=3), evaluate=toy_evaluate).run(
            run_dir=run_dir, initial_history=warm
        )
        checkpoint = read_checkpoint(run_dir)
        assert checkpoint["iteration"] == 2
        n_prefix = checkpoint["history_records"]
        lines = (run_dir / "history.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) > n_prefix
        # Garbage a power cut could leave behind is past the prefix too.
        with open(run_dir / "history.jsonl", "ab") as fh:
            fh.write(b'\x00\x00{"torn')

        Scenario.from_dict(scenario()).save(run_dir / "scenario.json")
        calls = []
        Study.resume(run_dir, evaluate=counting(calls))

        assert (run_dir / "history.jsonl").read_bytes() == (reference / "history.jsonl").read_bytes()
        assert (run_dir / "pareto.json").read_bytes() == (reference / "pareto.json").read_bytes()
        # Only the configurations after the checkpoint were evaluated again.
        after = [
            tuple(sorted(json.loads(line)["config"].items()))
            for line in (reference / "history.jsonl").read_bytes().splitlines()[n_prefix:]
        ]
        assert sorted(calls) == sorted(after)

    def refusal_run_dir(self, tmp_path):
        """A finished slambench run dir (the CLI can rebuild its evaluator)."""
        scenario = {
            "schema_version": 1,
            "name": "refusal",
            "evaluator": {
                "type": "slambench",
                "workload": "kfusion",
                "device": "odroid-xu3",
                "n_frames": 8,
                "width": 32,
                "height": 24,
                "dataset_seed": 3,
            },
            "search": {"algorithm": "random", "budget": 4},
            "seed": 13,
        }
        path = tmp_path / "refusal.json"
        path.write_text(json.dumps(scenario))
        run_dir = tmp_path / "run"
        assert cli_main(["run", str(path), "--run-dir", str(run_dir), "--quiet"]) == 0
        return run_dir

    def flip_byte_in_prefix(self, run_dir):
        path = run_dir / "history.jsonl"
        data = bytearray(path.read_bytes())
        i = data.index(b'"iteration": 0')
        data[i + len('"iteration": ')] = ord("7")
        path.write_bytes(bytes(data))
        return "has a different sha256"

    def shorten_history(self, run_dir):
        path = run_dir / "history.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))
        return "expected 4 records, found 2"

    def version_1_checkpoint(self, run_dir):
        path = run_dir / "checkpoints" / "engine.json"
        payload = json.loads(path.read_text())
        for key in ("history_file", "history_records", "history_sha256", "pool_records"):
            del payload[key]
        payload["version"] = 1
        payload["history"] = [
            json.loads(line) for line in (run_dir / "history.jsonl").read_text().splitlines()
        ]
        payload["pool_include"] = []
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return "version 1 embedded the history: re-run the study fresh"

    @pytest.mark.parametrize("damage", ["flip_byte_in_prefix", "shorten_history", "version_1_checkpoint"])
    def test_refused_resume_touches_nothing(self, tmp_path, capsys, damage):
        run_dir = self.refusal_run_dir(tmp_path)
        message = getattr(self, damage)(run_dir)
        files = [run_dir / "history.jsonl", run_dir / "checkpoints" / "engine.json"]
        before = [f.read_bytes() for f in files]

        with pytest.raises(ValueError, match=message):
            Study.resume(run_dir)
        assert [f.read_bytes() for f in files] == before

        capsys.readouterr()
        assert cli_main(["resume", str(run_dir), "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert [f.read_bytes() for f in files] == before


class TestBoundedCheckpoint:
    """Checkpoints hold bounded run state and are written only after the
    history they name is on disk."""

    @staticmethod
    def wide_space():
        return DesignSpace(
            [OrdinalParameter(f"p{i}", list(range(10)), default=0) for i in range(5)], name="wide"
        )

    @staticmethod
    def wide_evaluate(config):
        x = [float(config[f"p{i}"]) for i in range(5)]
        return {"error": 0.1 * x[0] + 0.05 * x[1] * x[2] / 9.0, "runtime": 1.0 / (1.0 + x[3]) + 0.1 * x[4]}

    def test_checkpoint_size_independent_of_bootstrap_size(self, tmp_path):
        sizes = []
        for n in (50, 200):
            scenario = {
                "schema_version": SCENARIO_VERSION,
                "name": "wide",
                "space": self.wide_space().to_dict(),
                "objectives": [{"name": "error", "limit": 0.6}, {"name": "runtime"}],
                "evaluator": {"type": "function"},
                # Random pool picks never run out, so both runs do all
                # three iterations.
                "search": {
                    "algorithm": "hypermapper",
                    "acquisition": {"name": "epsilon_greedy", "epsilon": 1.0},
                    "n_random_samples": n,
                    "max_iterations": 3,
                    "pool_size": 400,
                    "max_samples_per_iteration": 5,
                },
                "seed": 3,
            }
            run_dir = tmp_path / f"boot-{n}"
            result = Study(scenario, evaluate=self.wide_evaluate).run(run_dir=run_dir)
            assert len(result.history) == n + 15 and len(result.iterations) == 3
            checkpoint = read_checkpoint(run_dir)
            assert "history" not in checkpoint and "pool_include" not in checkpoint
            sizes.append((run_dir / "checkpoints" / "engine.json").stat().st_size)
        assert abs(sizes[0] - sizes[1]) <= 64, sizes

    def test_history_fsynced_before_checkpoint_and_completion(self, toy_space, tmp_path, monkeypatch):
        import repro.core.engine as engine_module
        import repro.core.study as study_module

        run_dir = tmp_path / "run"
        history = run_dir / "history.jsonl"
        synced = {"bytes": -1}
        checks = []
        real_fsync = os.fsync

        def fsync(fd):
            real_fsync(fd)
            st = os.fstat(fd)
            if history.exists() and os.path.samestat(st, os.stat(history)):
                synced["bytes"] = st.st_size

        def checked(real):
            def write(path, payload, **kwargs):
                name = os.path.basename(str(path))
                if name == "engine.json" or (name == "run.json" and payload.get("status") == "complete"):
                    assert synced["bytes"] == history.stat().st_size, (name, synced["bytes"])
                    checks.append(name)
                return real(path, payload, **kwargs)

            return write

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(engine_module, "atomic_write_json", checked(engine_module.atomic_write_json))
        monkeypatch.setattr(study_module, "atomic_write_json", checked(study_module.atomic_write_json))
        Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        assert checks.count("run.json") == 1
        assert checks.count("engine.json") >= 2


class TestRunInDir:
    """``run_in_dir`` is the one reload/resume/fresh decision that sweep
    workers and the live service share."""

    @staticmethod
    def counting():
        calls = []

        def evaluate(config):
            calls.append(config)
            return toy_evaluate(config)

        return calls, evaluate

    def test_fresh_run_applies_n_workers_and_writes_plain_bytes(self, toy_space, tmp_path):
        plain = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=tmp_path / "plain")
        result, reused = run_in_dir(
            toy_scenario(toy_space), tmp_path / "run", evaluate=toy_evaluate, n_workers=3
        )
        assert not reused
        assert (plain.engine_info["n_workers"], result.engine_info["n_workers"]) == (1, 3)
        assert (tmp_path / "run" / "history.jsonl").read_bytes() == (
            tmp_path / "plain" / "history.jsonl"
        ).read_bytes()

    def test_parked_run_dir_continues_with_its_persisted_n_workers(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        polls = {"n": 0}

        def park_at_second_boundary():
            polls["n"] += 1
            return polls["n"] >= 2

        parked = dict(toy_scenario(toy_space), executor={"n_workers": 2})
        with pytest.raises(SearchPreempted):
            Study(parked, evaluate=toy_evaluate).run(
                run_dir=run_dir, stop_requested=park_at_second_boundary
            )
        assert run_status(run_dir) == "parked"
        calls, evaluate = self.counting()
        # The scenario and n_workers given are ignored: the run dir's own win.
        result, reused = run_in_dir(toy_scenario(toy_space), run_dir, evaluate=evaluate, n_workers=5)
        assert not reused
        assert result.engine_info["n_workers"] == 2
        full = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=tmp_path / "full")
        assert 0 < len(calls) < len(full.history)  # continued, not restarted
        assert (run_dir / "history.jsonl").read_bytes() == (
            tmp_path / "full" / "history.jsonl"
        ).read_bytes()

    def test_finished_run_dir_is_reloaded_not_rerun(self, toy_space, tmp_path):
        run_dir = tmp_path / "run"
        first = Study(toy_scenario(toy_space), evaluate=toy_evaluate).run(run_dir=run_dir)
        before = (run_dir / "history.jsonl").read_bytes()
        calls, evaluate = self.counting()
        result, reused = run_in_dir(toy_scenario(toy_space), run_dir, evaluate=evaluate, n_workers=4)
        assert reused and calls == []
        assert hist_dump(result) == hist_dump(first)
        assert result.engine_info["n_workers"] == 1
        assert (run_dir / "history.jsonl").read_bytes() == before


class TestSlamBenchStudy:
    SEARCH = dict(n_random_samples=8, max_iterations=2, pool_size=200, max_samples_per_iteration=4)

    def scenario(self):
        return {
            "schema_version": 1,
            "name": "kfusion-tiny",
            "evaluator": {
                "type": "slambench",
                "workload": "kfusion",
                "device": "odroid-xu3",
                "n_frames": 8,
                "width": 32,
                "height": 24,
                "dataset_seed": 3,
            },
            "search": {"algorithm": "hypermapper", **self.SEARCH},
            "seed": 7,
        }

    def test_bit_identical_to_hand_wired_call(self, tmp_path):
        from repro.devices.catalog import get_device
        from repro.slambench.workloads import get_workload

        workload = get_workload("kfusion")
        runner = workload.make_runner(n_frames=8, width=32, height=24, dataset_seed=3)
        run_dir = tmp_path / "run"
        result = Study(self.scenario(), runner=runner).run(run_dir=run_dir)

        hand = HyperMapper(
            workload.space(),
            workload.objectives(),
            runner.evaluation_function(get_device("odroid-xu3")),
            seed=7,
            **self.SEARCH,
        ).run()
        assert hist_dump(result) == hist_dump(hand)
        loaded = StudyResult.load(run_dir)
        assert hist_dump(loaded) == hist_dump(hand)
        assert front_dump(loaded) == [(dict(r.config), dict(r.metrics)) for r in hand.pareto]


class TestBaselineCheckpointResume:
    """Satellite: strategy-state checkpoint/resume for the baseline machines."""

    def _roundtrip(self, make_search, run_kwargs, tmp_path, kill_kwargs):
        ck = os.path.join(str(tmp_path), "baseline-checkpoint.json")
        full = make_search().run(**run_kwargs)
        killed = make_search(checkpoint_path=ck)
        killed.run(**dict(run_kwargs, **kill_kwargs))
        resumed = make_search().run(**dict(run_kwargs, resume_from=ck))
        assert hist_dump(resumed) == hist_dump(full)
        assert front_dump(resumed) == front_dump(full)

    def test_local_search_resume(self, toy_space, objectives, tmp_path):
        def make(**kw):
            return LocalSearch(toy_space, objectives, toy_evaluate, n_restarts=2, seed=5, **kw)

        self._roundtrip(make, dict(budget=24), tmp_path, dict(max_iterations=3))

    def test_evolutionary_search_resume(self, toy_space, objectives, tmp_path):
        def make(**kw):
            return EvolutionarySearch(
                toy_space, objectives, toy_evaluate, population_size=6, seed=5, **kw
            )

        self._roundtrip(make, dict(budget=30), tmp_path, dict(max_iterations=2))

    def test_bandit_search_resume(self, toy_space, objectives, tmp_path):
        def make(**kw):
            return BanditSearch(toy_space, objectives, toy_evaluate, seed=5, **kw)

        self._roundtrip(make, dict(budget=30, batch_size=6), tmp_path, dict(max_iterations=2))

    def test_random_search_resume_replays(self, toy_space, objectives, tmp_path):
        ck = os.path.join(str(tmp_path), "ck.json")
        full = RandomSearch(toy_space, objectives, toy_evaluate, seed=5, checkpoint_path=ck).run(15)
        resumed = RandomSearch(toy_space, objectives, toy_evaluate, seed=5).run(15, resume_from=ck)
        assert hist_dump(resumed) == hist_dump(full)

    def test_grid_search_resume_replays(self, toy_space, objectives, tmp_path):
        ck = os.path.join(str(tmp_path), "ck.json")
        full = GridSearch(toy_space, objectives, toy_evaluate, levels=2, seed=5, checkpoint_path=ck).run()
        resumed = GridSearch(toy_space, objectives, toy_evaluate, levels=2, seed=5).run(resume_from=ck)
        assert hist_dump(resumed) == hist_dump(full)

    def test_local_search_scale_survives_resume(self, toy_space, objectives, tmp_path):
        """The scalarization scale is pinned to the bootstrap, not re-derived."""
        ck = os.path.join(str(tmp_path), "ck.json")
        search = LocalSearch(
            toy_space, objectives, toy_evaluate, n_restarts=2, seed=9, checkpoint_path=ck
        )
        search.run(20, max_iterations=2)
        payload = json.loads(open(ck).read())
        assert "scale" in payload["strategy"]
        assert len(payload["strategy"]["scale"]) == 2


class TestCLI:
    def scenario_path(self, tmp_path, search=None, name="cli-tiny"):
        scenario = {
            "schema_version": 1,
            "name": name,
            "evaluator": {
                "type": "slambench",
                "workload": "kfusion",
                "device": "odroid-xu3",
                "n_frames": 8,
                "width": 32,
                "height": 24,
                "dataset_seed": 3,
            },
            "search": search or {"algorithm": "random", "budget": 10},
            "seed": 13,
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_run_missing_scenario_file_is_a_cli_error(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_run_reports_runtime_value_errors_cleanly(self, tmp_path, capsys):
        # Validates (budget >= 1) but fails in BanditSearch.run: budget is
        # smaller than the default batch_size.  A *failed run* is exit code
        # 1 (the spec was usable; the work failed), never a traceback.
        scenario = self.scenario_path(
            tmp_path, search={"algorithm": "bandit", "budget": 4}, name="bandit-bad"
        )
        assert cli_main(["run", str(scenario), "--run-dir", str(tmp_path / "r")]) == 1
        assert "batch_size" in capsys.readouterr().err

    def test_run_invalid_scenario_is_a_usage_error(self, tmp_path, capsys):
        # Satellite: validation errors are exit code 2, consistently.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "evaluator": {"type": "nope"}}))
        assert cli_main(["run", str(bad)]) == 2
        assert "/evaluator/type" in capsys.readouterr().err
        # Same spec through validate: same exit code.
        assert cli_main(["validate", str(bad)]) == 2

    def test_resume_missing_run_dir_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(["resume", str(tmp_path / "nowhere")]) == 2
        assert "not a study run directory" in capsys.readouterr().err
        # A directory that exists but holds no run is the same error.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["resume", str(empty)]) == 2

    def test_default_run_dir_sanitizes_scenario_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scenario = json.loads(self.scenario_path(tmp_path).read_text())
        scenario["name"] = "../escape/../../attempt"
        path = tmp_path / "evil.json"
        path.write_text(json.dumps(scenario))
        assert cli_main(["run", str(path), "--quiet"]) == 0
        runs = [p.name for p in (tmp_path / "runs").iterdir()]
        # One directory, one path component: the separators were flattened.
        assert len(runs) == 1
        assert "/" not in runs[0] and runs[0] not in (".", "..")
        assert not (tmp_path.parent / "escape").exists()

    def test_validate_ok_and_failure_exit_codes(self, tmp_path, capsys):
        good = self.scenario_path(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "evaluator": {"type": "nope"}}))
        assert cli_main(["validate", str(good)]) == 0
        # Validation failures are exit code 2 — the same code `run` gives an
        # unusable spec — so shell scripts see one consistent contract.
        assert cli_main(["validate", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "/evaluator/type" in err

    @pytest.mark.parametrize("key, value", [("splitter", "exact"), ("n_estimator", 8)])
    def test_validate_rejects_unknown_surrogate_key(self, tmp_path, capsys, key, value):
        scenario = self.scenario_path(
            tmp_path, search={"algorithm": "hypermapper", "surrogate": {key: value}}
        )
        assert cli_main(["validate", str(scenario)]) == 2
        assert f"/search/surrogate/{key}" in capsys.readouterr().err

    def test_run_report_resume_end_to_end(self, tmp_path, capsys):
        scenario = self.scenario_path(tmp_path)
        run_dir = tmp_path / "run"
        assert cli_main(["run", str(scenario), "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "10 evaluations" in out
        # Refuses to clobber without --force.
        assert cli_main(["run", str(scenario), "--run-dir", str(run_dir)]) == 2
        capsys.readouterr()
        assert cli_main(["report", str(run_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_evaluations"] == 10
        assert report["algorithm"] == "random"
        # Resuming the finished run replays to the identical result.
        assert cli_main(["resume", str(run_dir)]) == 0
        resumed = StudyResult.load(run_dir)
        assert len(resumed.history) == 10

    def test_cli_resume_continues_killed_bandit_run(self, tmp_path, capsys):
        """A budget-extended resume picks up the bandit's checkpointed state."""
        search_small = {"algorithm": "bandit", "budget": 18, "batch_size": 6}
        search_full = {"algorithm": "bandit", "budget": 30, "batch_size": 6}
        run_dir = tmp_path / "run"
        # The partial run exhausts its budget at a batch boundary (aligned
        # with batch_size), so its history is a prefix of the full run's.
        partial = self.scenario_path(tmp_path, search=search_small, name="bandit-partial")
        assert cli_main(["run", str(partial), "--run-dir", str(run_dir), "--quiet"]) == 0
        # Swap in the full-budget scenario and resume from the checkpoint.
        full_scenario = json.loads(self.scenario_path(tmp_path, search=search_full, name="bandit-full").read_text())
        Scenario.from_dict(full_scenario).save(run_dir / "scenario.json")
        assert cli_main(["resume", str(run_dir), "--quiet"]) == 0
        resumed = StudyResult.load(run_dir)

        # Reference: the same full-budget scenario run uninterrupted (shared
        # runner keeps the comparison cheap and deterministic).
        from repro.slambench.workloads import get_workload

        runner = get_workload("kfusion").make_runner(n_frames=8, width=32, height=24, dataset_seed=3)
        uninterrupted = Study(full_scenario, runner=runner).run()
        assert hist_dump(resumed) == hist_dump(uninterrupted)

    def test_list_plugins_matches_registry(self, capsys):
        assert cli_main(["list-plugins", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == registry_snapshot()
        for kind, expected in (
            ("acquisition", "predicted_pareto"),
            ("search", "hypermapper"),
            ("evaluator", "slambench"),
            ("workload", "kfusion"),
            ("device", "odroid-xu3"),
        ):
            assert expected in printed[kind]
