"""Artifact-contract tests: the persisted layouts are frozen by golden files.

The run-dir (``scenario.json``, ``history.jsonl``, ``pareto.json``, ...) and
sweep-dir (``sweep.json``, ``comparison.json``) layouts are consumed by
``StudyResult.load``, ``crowd.app.tuned_config_from_run``, the CLI report
commands and any external tooling reading the artifacts off disk.  A future
``schema_version: 2`` / ``run_dir_version: 2`` must be an *explicit*
migration — these tests make a silent byte-level drift of today's version-1
formats a test failure.

Two layers:

* **golden files** — a fixed, fully deterministic sweep is re-run into a
  temporary directory and compared byte-for-byte against the checked-in
  copies under ``tests/data/golden_sweep``.  Regenerate deliberately with
  ``REPRO_REGEN_GOLDEN=1 pytest tests/test_artifact_contract.py``.
* **structural contracts** — required keys and version stamps of every
  artifact, plus the version-gate behaviour (a bumped version must be
  rejected loudly, never half-read).  ``checkpoints/engine.json`` is not a
  golden file (it holds rng states and fit times), so only its key set and
  version gate are pinned.
"""

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core.scenario import Scenario, ScenarioError
from repro.core.study import Study, StudyResult
from repro.core.sweep import SweepSpec, load_manifest, run_sweep
from repro.crowd.app import tuned_config_from_run

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_sweep"

#: Files compared byte-for-byte (everything in them is deterministic: no
#: timings, no absolute paths, sorted keys).
GOLDEN_FILES = [
    "sweep.json",
    "comparison.json",
    "comparison.md",
    "points/000-seed-1-budget-5/scenario.json",
    "points/000-seed-1-budget-5/history.jsonl",
    "points/000-seed-1-budget-5/pareto.json",
]

SPACE = {
    "parameters": [
        {"type": "ordinal", "name": "a", "values": [1, 2, 4], "default": 1},
        {"type": "boolean", "name": "fast", "default": False},
        {"type": "categorical", "name": "mode", "choices": ["x", "y"], "default": "x"},
    ]
}


def golden_evaluate(config):
    a, fast = float(config["a"]), bool(config["fast"])
    m = {"x": 0.0, "y": 0.125}[config["mode"]]
    return {
        "err": 0.125 * a + (0.25 if fast else 0.0) + m,
        "cost": 1.0 / a + (0.0 if fast else 0.5) + 0.25 * m,
    }


def golden_spec():
    return {
        "schema_version": 1,
        "name": "golden-sweep",
        "base": {
            "schema_version": 1,
            "name": "golden-base",
            "space": SPACE,
            "objectives": [{"name": "err", "limit": 1.0}, {"name": "cost"}],
            "evaluator": {"type": "function"},
            "search": {"algorithm": "random", "budget": 5},
            "seed": 1,
        },
        "axes": {"seed": [1, 2], "search.budget": [5, 7]},
        "scheduler": {"max_concurrent_studies": 2},
    }


def build_golden_sweep(target: Path):
    # A fixed owner keeps the manifest deterministic (the default owner id
    # is host:pid:nonce).
    return run_sweep(golden_spec(), target, evaluate=golden_evaluate, owner="golden")


@pytest.fixture(scope="module")
def fresh_sweep(tmp_path_factory):
    """The golden sweep, regenerated from scratch for this test session."""
    target = tmp_path_factory.mktemp("golden") / "sweep"
    build_golden_sweep(target)
    return target


class TestGoldenFiles:
    def test_artifacts_match_checked_in_goldens(self, fresh_sweep):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            for rel in GOLDEN_FILES:
                dst = GOLDEN_DIR / rel
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(fresh_sweep / rel, dst)
            pytest.skip("golden files regenerated")
        for rel in GOLDEN_FILES:
            golden = GOLDEN_DIR / rel
            assert golden.exists(), f"missing golden file {rel} (run with REPRO_REGEN_GOLDEN=1)"
            fresh = (fresh_sweep / rel).read_text()
            assert fresh == golden.read_text(), (
                f"{rel} drifted from its golden copy. If the format change is "
                f"intentional, bump the artifact version and regenerate with "
                f"REPRO_REGEN_GOLDEN=1."
            )

    def test_golden_run_dir_still_loads_for_consumers(self):
        """The checked-in artifacts themselves satisfy the consumer APIs."""
        run_dir = GOLDEN_DIR / "points" / "000-seed-1-budget-5"
        result = StudyResult.load(run_dir)
        assert len(result.history) == 5
        assert result.scenario.schema_version == 1
        # The crowd fleet's entry point reads the same artifact.
        tuned = tuned_config_from_run(run_dir, objective="cost")
        assert set(tuned) == {"a", "fast", "mode"}
        manifest = load_manifest(GOLDEN_DIR)
        assert [p["status"] for p in manifest["points"]] == ["complete"] * 4
        # The stored spec round-trips through validation.
        assert SweepSpec.from_dict(manifest["spec"]) == SweepSpec.from_dict(golden_spec())


class TestRunDirContract:
    def test_file_set_and_versions(self, fresh_sweep):
        run_dir = fresh_sweep / "points" / "000-seed-1-budget-5"
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == [
            "checkpoints",
            "history.jsonl",
            "pareto.json",
            "report.json",
            "run.json",
            "scenario.json",
        ]
        scenario = json.loads((run_dir / "scenario.json").read_text())
        assert scenario["schema_version"] == 1
        assert set(scenario) == {
            "schema_version", "name", "space", "objectives", "constraints",
            "evaluator", "search", "executor", "budget", "seed", "checkpoint",
        }
        run_meta = json.loads((run_dir / "run.json").read_text())
        assert run_meta["run_dir_version"] == 1
        assert set(run_meta) >= {"run_dir_version", "scenario", "schema_version", "status"}
        for line in (run_dir / "history.jsonl").read_text().splitlines():
            assert set(json.loads(line)) == {"config", "metrics", "source", "iteration"}
        for record in json.loads((run_dir / "pareto.json").read_text()):
            assert set(record) == {"config", "metrics", "source", "iteration"}
        report = json.loads((run_dir / "report.json").read_text())
        assert set(report) >= {
            "run_dir_version", "scenario", "algorithm", "n_evaluations", "n_feasible",
            "n_pareto", "per_source", "n_iterations", "best", "iterations", "engine",
        }

    def test_future_run_dir_version_is_rejected(self, fresh_sweep, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(fresh_sweep / "points" / "000-seed-1-budget-5", run_dir)
        meta = json.loads((run_dir / "run.json").read_text())
        meta["run_dir_version"] = 2
        (run_dir / "run.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="run-dir version"):
            StudyResult.load(run_dir)

    def test_future_scenario_version_is_rejected(self, fresh_sweep, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(fresh_sweep / "points" / "000-seed-1-budget-5", run_dir)
        scenario = json.loads((run_dir / "scenario.json").read_text())
        scenario["schema_version"] = 2
        (run_dir / "scenario.json").write_text(json.dumps(scenario))
        with pytest.raises(ScenarioError, match="/schema_version"):
            StudyResult.load(run_dir)
        with pytest.raises(ScenarioError, match="unsupported schema version 2"):
            Scenario.from_dict(scenario)


class TestCheckpointContract:
    POINT = "points/000-seed-1-budget-5"

    def test_version_2_keys_name_the_history_prefix(self, fresh_sweep):
        run_dir = fresh_sweep / self.POINT
        checkpoint = json.loads((run_dir / "checkpoints" / "engine.json").read_text())
        assert checkpoint["version"] == 2
        assert set(checkpoint) == {
            "version", "rng_label", "seed_fingerprint", "iteration", "rng_state",
            "pool_rng_state", "history_file", "history_records", "history_sha256",
            "pool_records", "reports", "pending", "budget_used", "budget_stop",
            "converged", "hypervolume_reference", "strategy",
        }
        # The records live only in history.jsonl; the checkpoint names them.
        history = (run_dir / "history.jsonl").read_bytes()
        assert checkpoint["history_file"] == "../history.jsonl"
        assert checkpoint["history_records"] == 5
        assert checkpoint["history_sha256"] == hashlib.sha256(history).hexdigest()

    def test_version_1_checkpoint_is_refused_unread(self, fresh_sweep, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(fresh_sweep / self.POINT, run_dir)
        path = run_dir / "checkpoints" / "engine.json"
        payload = json.loads(path.read_text())
        for key in ("history_file", "history_records", "history_sha256", "pool_records"):
            del payload[key]
        payload["version"] = 1
        payload["history"] = [
            json.loads(line) for line in (run_dir / "history.jsonl").read_text().splitlines()
        ]
        payload["pool_include"] = []
        path.write_text(json.dumps(payload))
        files = [run_dir / "history.jsonl", path]
        before = [f.read_bytes() for f in files]
        calls = []

        def evaluate(config):
            calls.append(config)
            return golden_evaluate(config)

        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            Study.resume(run_dir, evaluate=evaluate)
        assert calls == []
        assert [f.read_bytes() for f in files] == before


class TestSweepDirContract:
    def test_manifest_keys_and_versions(self, fresh_sweep):
        manifest = json.loads((fresh_sweep / "sweep.json").read_text())
        assert manifest["sweep_dir_version"] == 1
        assert set(manifest) == {
            "sweep_dir_version", "name", "status", "n_points", "n_complete",
            "n_failed", "spec", "points",
        }
        assert manifest["spec"]["schema_version"] == 1
        for point in manifest["points"]:
            assert set(point) == {
                "point_id", "overrides", "run_dir", "status", "error", "owner", "generation",
            }
            assert point["run_dir"] == f"points/{point['point_id']}"

    def test_comparison_keys(self, fresh_sweep):
        comparison = json.loads((fresh_sweep / "comparison.json").read_text())
        assert set(comparison) == {
            "sweep", "sweep_dir_version", "status", "n_points", "n_complete",
            "n_failed", "objectives", "reference", "points", "ranking",
        }
        assert comparison["objectives"] == ["err", "cost"]
        for entry in comparison["points"]:
            assert set(entry) >= {
                "point_id", "run_dir", "overrides", "status", "n_evaluations",
                "n_feasible", "n_pareto", "best", "front", "hypervolume", "quality_curve",
            }

    def test_future_sweep_dir_version_is_rejected(self, fresh_sweep, tmp_path):
        target = tmp_path / "sweep"
        shutil.copytree(fresh_sweep, target)
        manifest = json.loads((target / "sweep.json").read_text())
        manifest["sweep_dir_version"] = 2
        (target / "sweep.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="sweep-dir version"):
            load_manifest(target)

    def test_future_sweep_spec_version_is_rejected(self):
        spec = golden_spec()
        spec["schema_version"] = 2
        with pytest.raises(ScenarioError, match="unsupported sweep version 2"):
            SweepSpec.from_dict(spec)
