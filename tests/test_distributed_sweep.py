"""Tests for lease-coordinated multi-worker sweeps and ``repro doctor``.

Acceptance criteria covered (ISSUE: multi-host sweeps):

* two workers interleaving claims over one sweep dir produce per-point
  ``history.jsonl`` and ``comparison.json`` byte-identical to a
  single-worker run,
* a SIGKILLed worker's lease expires and a survivor takes the point over
  (generation bumped), with artifacts still byte-identical,
* a fenced writer (its lease taken over) cannot settle: the manifest keeps
  the successor's result,
* ``repro doctor`` repairs torn history tails, stranded temporaries, and
  orphaned/expired leases, reports unrepairable damage, and respects live
  leases; ``--dry-run`` only reports.
"""

import functools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.doctor import doctor
from repro.core.durable import read_jsonl, write_checksummed_json
from repro.core.leases import Lease, LeaseStore, StaleLeaseError
from repro.core.study import StudyResult, clean_run_residue, run_residue
from repro.core.sweep import (
    LEASES_DIR,
    POINTS_DIR,
    SweepError,
    SweepSpec,
    SweepWorker,
    load_manifest,
    point_scenario,
    prepare_sweep_dir,
    run_sweep,
    settle_point,
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


def toy_sweep(**overrides):
    spec = {
        "schema_version": 1,
        "name": "toy-sweep",
        "base": {
            "schema_version": 1,
            "name": "toy",
            "space": SPACE,
            "objectives": [{"name": "err"}, {"name": "cost"}],
            "evaluator": {"type": "function"},
            "search": {"algorithm": "random", "budget": 8},
            "seed": 3,
        },
        "axes": {"seed": [3, 5], "search.budget": [6, 8]},
        "scheduler": {"max_concurrent_studies": 2},
    }
    spec.update(overrides)
    return spec


def point_bytes(sweep_dir, name="history.jsonl"):
    out = {}
    for entry in load_manifest(sweep_dir)["points"]:
        path = Path(sweep_dir) / entry["run_dir"] / name
        out[entry["point_id"]] = path.read_bytes() if path.exists() else None
    return out


def make_worker(sweep_dir, owner, **kwargs):
    kwargs.setdefault("evaluate", toy_evaluate)
    return SweepWorker(sweep_dir, owner=owner, **kwargs)


class TestPrepareSweepDir:
    def test_prepare_is_idempotent_under_resume(self, tmp_path):
        spec = SweepSpec.from_dict(toy_sweep())
        sweep_dir = tmp_path / "sw"
        first = prepare_sweep_dir(spec, sweep_dir)
        again = prepare_sweep_dir(spec, sweep_dir, resume=True)
        assert [e["point_id"] for e in first["points"]] == [
            e["point_id"] for e in again["points"]
        ]
        assert all(e["status"] == "pending" for e in first["points"])

    def test_prepare_rejects_a_different_spec(self, tmp_path):
        sweep_dir = tmp_path / "sw"
        prepare_sweep_dir(SweepSpec.from_dict(toy_sweep()), sweep_dir)
        other = SweepSpec.from_dict(toy_sweep(axes={"seed": [3, 7]}))
        with pytest.raises(SweepError):
            prepare_sweep_dir(other, sweep_dir, resume=True)

    def test_point_scenarios_match_manifest_ids_after_round_trip(self, tmp_path):
        """Regression: the manifest is serialized with sorted keys, which
        reorders the axes dict; worker scenarios must be derived from the
        manifest entries, not from re-expanding the axes."""
        sweep_dir = tmp_path / "sw"
        original = SweepSpec.from_dict(toy_sweep())
        prepare_sweep_dir(original, sweep_dir)
        manifest = load_manifest(sweep_dir)
        round_tripped = SweepSpec.from_dict(manifest["spec"])
        expected = {p.point_id: p.scenario.to_dict() for p in original.expand()}
        for entry in manifest["points"]:
            pid = entry["point_id"]
            scenario = point_scenario(round_tripped, pid, entry["overrides"])
            assert scenario is not None
            assert scenario.name == f"{original.name}-{pid}"
            assert scenario.to_dict() == expected[pid]


class TestMultiWorkerBitIdentity:
    def test_interleaved_workers_match_single_worker_run(self, tmp_path):
        ref_dir = tmp_path / "ref"
        run_sweep(toy_sweep(), ref_dir, evaluate=toy_evaluate)

        sweep_dir = tmp_path / "sw"
        prepare_sweep_dir(SweepSpec.from_dict(toy_sweep()), sweep_dir)
        w1 = make_worker(sweep_dir, "w1")
        w2 = make_worker(sweep_dir, "w2")
        # Strict alternation: each worker claims exactly one point per turn.
        claimed = {"w1": 0, "w2": 0}
        for turn in range(8):
            worker = (w1, w2)[turn % 2]
            outcomes = worker.run(max_points=1)
            claimed[worker.owner] += len(outcomes)
        manifest = w1.finalize()

        assert manifest["status"] == "complete"
        assert claimed == {"w1": 2, "w2": 2}
        owners = {e["point_id"]: e["owner"] for e in manifest["points"]}
        assert sorted(owners.values()) == ["w1", "w1", "w2", "w2"]
        assert point_bytes(sweep_dir) == point_bytes(ref_dir)
        assert point_bytes(sweep_dir, "scenario.json") == point_bytes(ref_dir, "scenario.json")
        assert (sweep_dir / "comparison.json").read_bytes() == (
            ref_dir / "comparison.json"
        ).read_bytes()
        assert (sweep_dir / LEASES_DIR).is_dir()
        assert list((sweep_dir / LEASES_DIR).glob("*.lease.json")) == []

    def test_sweep_worker_cli_reruns_a_deleted_point_of_a_finished_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        """A worker joining with --spec re-opens the point whose run dir is
        gone, re-runs exactly that point, and the sweep ends complete."""
        sweep_dir = tmp_path / "golden"
        build_golden_sweep(sweep_dir)
        spec_path = tmp_path / "golden.json"
        spec_path.write_text(json.dumps(golden_spec()))
        victim = sweep_dir / POINTS_DIR / "002-seed-2-budget-5"
        before = (victim / "history.jsonl").read_bytes()
        shutil.rmtree(victim)

        calls = []

        def counting(config):
            calls.append(config)
            return golden_evaluate(config)

        # The golden spec's "function" evaluator needs a host callable,
        # which the CLI worker cannot rebind on its own.
        monkeypatch.setattr(
            "repro.core.sweep.SweepWorker", functools.partial(SweepWorker, evaluate=counting)
        )
        argv = ["sweep-worker", str(sweep_dir), "--spec", str(spec_path), "--owner", "joiner"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("claimed") == 1 and "claimed 002-seed-2-budget-5" in out
        assert len(calls) == 5  # that point's budget, nothing else
        assert (victim / "history.jsonl").read_bytes() == before
        entry = next(
            e for e in load_manifest(sweep_dir)["points"]
            if e["point_id"] == "002-seed-2-budget-5"
        )
        assert (entry["status"], entry["owner"], entry["generation"]) == (
            "complete", "joiner", 2,
        )
        comparison = json.loads((sweep_dir / "comparison.json").read_text())
        assert comparison["status"] == "complete"


class TestTakeoverAndFencing:
    def test_dead_worker_is_taken_over_at_a_higher_generation(self, tmp_path):
        now = {"t": 1000.0}
        clock = lambda: now["t"]  # noqa: E731
        sweep_dir = tmp_path / "sw"
        prepare_sweep_dir(SweepSpec.from_dict(toy_sweep()), sweep_dir)

        victim = make_worker(sweep_dir, "victim", ttl_s=10.0, clock=clock, heartbeat=False)
        claim = victim.claim_next()
        pid = claim.key
        entry = next(e for e in load_manifest(sweep_dir)["points"] if e["point_id"] == pid)
        assert (entry["status"], entry["owner"], entry["generation"]) == ("running", "victim", 1)
        # The victim "dies": no heartbeat, no settle.  Inside the ttl the
        # point is untouchable...
        survivor = make_worker(sweep_dir, "survivor", ttl_s=10.0, clock=clock, heartbeat=False)
        blocked = survivor.claim_next()
        assert not hasattr(blocked, "key") or blocked.key != pid
        # ...and once the lease expires, the survivor reclaims it at gen 2.
        now["t"] += 11.0
        outcomes = survivor.run(max_points=4)
        manifest = survivor.finalize()
        assert manifest["status"] == "complete"
        entry = next(e for e in manifest["points"] if e["point_id"] == pid)
        assert (entry["owner"], entry["generation"]) == ("survivor", 2)
        assert len(outcomes) >= 1

        # The fenced victim cannot settle its stale claim: the manifest keeps
        # the survivor's result.
        with pytest.raises(StaleLeaseError):
            settle_point(sweep_dir, pid, "failed", generation=1, error="zombie")
        entry = next(e for e in load_manifest(sweep_dir)["points"] if e["point_id"] == pid)
        assert (entry["status"], entry["generation"]) == ("complete", 2)

        # And the takeover is invisible in the artifacts.
        ref_dir = tmp_path / "ref"
        run_sweep(toy_sweep(), ref_dir, evaluate=toy_evaluate)
        assert point_bytes(sweep_dir) == point_bytes(ref_dir)

    def test_fenced_worker_settle_returns_false_and_keeps_successor(self, tmp_path):
        now = {"t": 1000.0}
        clock = lambda: now["t"]  # noqa: E731
        sweep_dir = tmp_path / "sw"
        prepare_sweep_dir(SweepSpec.from_dict(toy_sweep()), sweep_dir)

        victim = make_worker(sweep_dir, "victim", ttl_s=10.0, clock=clock, heartbeat=False)
        claim = victim.claim_next()
        pid = claim.key
        outcome = victim.run_point(claim)  # runs while "paused"
        now["t"] += 11.0
        survivor = make_worker(sweep_dir, "survivor", ttl_s=10.0, clock=clock, heartbeat=False)
        survivor.run(max_points=4)
        survivor.finalize()
        # The victim wakes up and tries to settle: cooperatively fenced.
        assert victim.settle(outcome) is False
        assert pid in victim.fenced_points
        entry = next(e for e in load_manifest(sweep_dir)["points"] if e["point_id"] == pid)
        assert (entry["owner"], entry["generation"]) == ("survivor", 2)


class TestSigkillWorkerSubprocess:
    def slam_sweep(self):
        return {
            "schema_version": 1,
            "name": "slam-sweep",
            "base": {
                "schema_version": 1,
                "name": "slam",
                "seed": 13,
                "evaluator": {
                    "type": "slambench",
                    "workload": "kfusion",
                    "device": "odroid-xu3",
                    "n_frames": 8,
                    "width": 32,
                    "height": 24,
                    "dataset_seed": 3,
                },
                "search": {"algorithm": "random", "budget": 6},
            },
            "axes": {"seed": [3, 7]},
            "scheduler": {"max_concurrent_studies": 1},
        }

    def test_sigkilled_worker_is_taken_over_bit_identically(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(self.slam_sweep()))
        sweep_dir = tmp_path / "sw"

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep-worker", str(sweep_dir),
                "--spec", str(spec_path), "--owner", "victim",
                "--ttl", "1", "--hold-after-claim", "300", "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            lease_dir = sweep_dir / LEASES_DIR
            deadline = time.time() + 60
            while time.time() < deadline and not list(lease_dir.glob("*.lease.json")):
                if victim.poll() is not None:
                    pytest.fail(f"victim exited early with {victim.returncode}")
                time.sleep(0.05)
            assert list(lease_dir.glob("*.lease.json")), "victim never claimed a point"
            time.sleep(0.3)  # let the claim finish its manifest write
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        claimed = [e for e in load_manifest(sweep_dir)["points"] if e["status"] == "running"]
        assert len(claimed) == 1 and claimed[0]["owner"] == "victim"
        pid = claimed[0]["point_id"]

        survivor = SweepWorker(sweep_dir, owner="survivor", ttl_s=1.0)
        survivor.run()
        manifest = survivor.finalize()
        assert manifest["status"] == "complete"
        entry = next(e for e in manifest["points"] if e["point_id"] == pid)
        assert (entry["owner"], entry["generation"]) == ("survivor", 2)

        ref_dir = tmp_path / "ref"
        run_sweep(self.slam_sweep(), ref_dir)
        assert point_bytes(sweep_dir) == point_bytes(ref_dir)
        assert (sweep_dir / "comparison.json").read_bytes() == (
            ref_dir / "comparison.json"
        ).read_bytes()
        report = doctor(sweep_dir)
        assert report.clean


class TestTornHistoryTolerance:
    def complete_sweep(self, tmp_path):
        sweep_dir = tmp_path / "sw"
        run_sweep(toy_sweep(), sweep_dir, evaluate=toy_evaluate)
        entry = load_manifest(sweep_dir)["points"][0]
        return sweep_dir, sweep_dir / entry["run_dir"]

    def test_result_load_ignores_a_torn_final_line(self, tmp_path):
        _, run_dir = self.complete_sweep(tmp_path)
        clean = StudyResult.load(run_dir)
        with open(run_dir / "history.jsonl", "a") as fh:
            fh.write('{"iteration": 99, "truncated')
        torn = StudyResult.load(run_dir)
        assert len(torn.history.records) == len(clean.history.records)

    def test_run_residue_probe_and_cleanup(self, tmp_path):
        _, run_dir = self.complete_sweep(tmp_path)
        (run_dir / ".run.json.123-0.tmp").write_text("{}")
        (run_dir / "checkpoints").mkdir(exist_ok=True)
        (run_dir / "checkpoints" / ".engine.json.9-1.tmp").write_text("{}")
        assert len(run_residue(run_dir)) == 2
        clean_run_residue(run_dir)
        assert run_residue(run_dir) == []


class TestDoctor:
    def complete_sweep(self, tmp_path):
        sweep_dir = tmp_path / "sw"
        run_sweep(toy_sweep(), sweep_dir, evaluate=toy_evaluate)
        return sweep_dir

    def test_clean_tree_reports_clean(self, tmp_path):
        sweep_dir = self.complete_sweep(tmp_path)
        report = doctor(sweep_dir)
        assert report.clean and report.healthy

    def test_repairs_torn_tail_tmp_residue_and_orphaned_lease(self, tmp_path):
        sweep_dir = self.complete_sweep(tmp_path)
        manifest = load_manifest(sweep_dir)
        run_dir = sweep_dir / manifest["points"][0]["run_dir"]
        history = run_dir / "history.jsonl"
        clean_bytes = history.read_bytes()
        with open(history, "a") as fh:
            fh.write('{"torn')
        (sweep_dir / ".sweep.json.77-0.tmp").write_text("{}")
        lease_dir = sweep_dir / LEASES_DIR
        lease_dir.mkdir(exist_ok=True)
        orphan = Lease(
            point_id=manifest["points"][1]["point_id"], owner="ghost",
            generation=1, acquired_at=0.0, heartbeat_at=0.0, ttl_s=30.0,
        )
        write_checksummed_json(
            lease_dir / f"{orphan.point_id}.lease.json", orphan.to_payload()
        )

        dry = doctor(sweep_dir, repair=False)
        assert not dry.clean and not dry.healthy
        assert sorted(f.kind for f in dry.findings) == [
            "orphaned-lease", "tmp-residue", "torn-history",
        ]
        assert history.read_bytes() != clean_bytes  # dry run touched nothing

        report = doctor(sweep_dir)
        assert not report.clean and report.healthy
        assert all(f.repaired for f in report.findings)
        assert history.read_bytes() == clean_bytes
        assert list(lease_dir.iterdir()) == []
        assert doctor(sweep_dir).clean  # second pass: nothing left

    def test_expired_lease_is_removed_live_lease_is_respected(self, tmp_path):
        sweep_dir = tmp_path / "sw"
        prepare_sweep_dir(SweepSpec.from_dict(toy_sweep()), sweep_dir)
        manifest = load_manifest(sweep_dir)
        pids = [e["point_id"] for e in manifest["points"]]
        store = LeaseStore(sweep_dir / LEASES_DIR, owner="w1", ttl_s=30.0)
        live = store.try_acquire(pids[0])
        assert live is not None
        expired = Lease(
            point_id=pids[1], owner="dead", generation=1,
            acquired_at=0.0, heartbeat_at=0.0, ttl_s=1.0,
        )
        write_checksummed_json(
            sweep_dir / LEASES_DIR / f"{pids[1]}.lease.json", expired.to_payload()
        )
        report = doctor(sweep_dir)
        kinds = {f.kind for f in report.findings}
        assert kinds == {"expired-lease"}
        assert store.path_for(pids[0]).exists()  # live lease untouched
        assert not store.path_for(pids[1]).exists()

    def test_corrupt_lease_is_removed(self, tmp_path):
        sweep_dir = self.complete_sweep(tmp_path)
        lease_dir = sweep_dir / LEASES_DIR
        lease_dir.mkdir(exist_ok=True)
        (lease_dir / "junk.lease.json").write_text("not json")
        report = doctor(sweep_dir)
        assert [f.kind for f in report.findings] == ["corrupt-lease"]
        assert report.healthy
        assert list(lease_dir.iterdir()) == []

    def test_unparseable_run_json_is_unrepairable(self, tmp_path):
        sweep_dir = self.complete_sweep(tmp_path)
        run_dir = sweep_dir / load_manifest(sweep_dir)["points"][0]["run_dir"]
        (run_dir / "run.json").write_text("{truncated")
        report = doctor(sweep_dir)
        assert not report.healthy
        bad = [f for f in report.findings if f.kind == "corrupt-artifact"]
        assert bad and not bad[0].repairable
        assert (run_dir / "run.json").read_text() == "{truncated"  # untouched

    def test_doctor_on_a_single_run_dir(self, tmp_path):
        sweep_dir = self.complete_sweep(tmp_path)
        run_dir = sweep_dir / load_manifest(sweep_dir)["points"][0]["run_dir"]
        with open(run_dir / "history.jsonl", "a") as fh:
            fh.write('{"torn')
        report = doctor(run_dir)
        assert [f.kind for f in report.findings] == ["torn-history"]
        assert report.healthy
        assert read_jsonl(run_dir / "history.jsonl", tolerate_torn_tail=False)

    def test_cli_exit_codes(self, tmp_path, capsys):
        sweep_dir = self.complete_sweep(tmp_path)
        assert cli_main(["doctor", str(sweep_dir)]) == 0
        assert "clean" in capsys.readouterr().out
        (sweep_dir / ".sweep.json.1-0.tmp").write_text("{}")
        # Dry run finds but does not fix: degraded exit, file still there.
        assert cli_main(["doctor", str(sweep_dir), "--dry-run"]) == 1
        assert (sweep_dir / ".sweep.json.1-0.tmp").exists()
        capsys.readouterr()
        # Repair pass fixes it: healthy exit, JSON report says repaired.
        assert cli_main(["doctor", str(sweep_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] and not payload["clean"]
        assert cli_main(["doctor", str(tmp_path / "nothing-here")]) == 2
