"""Tests for the live optimization service (queue, HTTP front door, client).

Acceptance criteria covered:

* **live bit-identity** — studies submitted to a running service (including
  over HTTP) persist ``history.jsonl`` byte-identical to standalone
  ``Study.run``,
* **quotas + preemption** — two tenants with unequal quotas/priorities
  observe enforced limits and deterministic preemption ordering; a
  preempted-then-resumed study is bit-identical,
* **crash recovery** — a server killed (SIGKILL) mid-study restarts from
  its journal and resumes the study bit-identically; clean shutdown parks
  at checkpoints and exits 0,
* **interleaving property** — any interleaving of submissions × priorities ×
  preemptions yields per-study histories bit-identical to standalone runs.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from executor_conformance import toy_evaluate, toy_evaluator_section

from repro.cli import main as cli_main
from repro.core.client import ServiceClient, ServiceHTTPError
from repro.core.registry import load_builtin_plugins, registry_snapshot
from repro.core.scenario import Scenario, ScenarioError
from repro.core.scheduler import preempting_policy, submission_priority
from repro.core.server import start_server
from repro.core.service import (
    JOURNAL_FILE,
    OptimizationService,
    ServiceConflictError,
    TenantQuota,
    UnknownStudyError,
)
from repro.core.study import HISTORY_FILE, Study

settings.register_profile(
    "service",
    max_examples=5,
    deadline=None,
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "service"))

SRC = Path(__file__).resolve().parent.parent / "src"

# toy_evaluate comes from the shared conformance module: same formula this
# file used to define locally (it tolerates the absent "fast" parameter),
# and also registered there as the "toy" evaluator socket workers build.
SPACE = {
    "parameters": [
        {"type": "ordinal", "name": "a", "values": [1, 2, 4, 8], "default": 1},
        {"type": "ordinal", "name": "b", "values": [0.1, 0.2, 0.4], "default": 0.1},
    ]
}


def toy_scenario(seed, *, name="toy", iterations=3):
    # hypermapper has iteration boundaries (checkpoints), which preemption
    # parks at; purely-bootstrap searches would run to completion instead.
    return {
        "schema_version": 1,
        "name": name,
        "space": SPACE,
        "objectives": [{"name": "err"}, {"name": "cost"}],
        "evaluator": {"type": "function"},
        "search": {
            "algorithm": "hypermapper",
            "n_random_samples": 3,
            "max_iterations": iterations,
            "max_samples_per_iteration": 2,
            "pool_size": 12,
        },
        "seed": seed,
    }


_REF_CACHE = {}


def reference_history(seed, *, iterations=3, evaluate=toy_evaluate):
    """Standalone ``Study.run`` history bytes for a toy scenario (cached)."""
    key = (seed, iterations)
    if key not in _REF_CACHE:
        run_dir = Path(tempfile.mkdtemp()) / "ref"
        Study(toy_scenario(seed, iterations=iterations), evaluate=evaluate).run(
            run_dir=run_dir
        )
        _REF_CACHE[key] = (run_dir / HISTORY_FILE).read_bytes()
    return _REF_CACHE[key]


def service_history(svc, study_id):
    return (Path(svc.status(study_id)["run_dir"]) / HISTORY_FILE).read_bytes()


class _Submission:
    def __init__(self, tenant, priority):
        self.tenant = tenant
        self.priority = priority


class TestPreemptingPolicy:
    def test_picks_highest_priority_first(self):
        pending = [_Submission("a", 0), _Submission("b", 5), _Submission("c", 2)]
        assert preempting_policy(pending, {}) == 1

    def test_fifo_among_equal_priorities(self):
        pending = [_Submission("a", 1), _Submission("b", 1), _Submission("c", 0)]
        assert preempting_policy(pending, {}) == 0

    def test_missing_priority_defaults_to_zero(self):
        class Bare:
            tenant = "x"

        assert submission_priority(Bare()) == 0
        assert preempting_policy([Bare(), _Submission("y", 1)], {}) == 1

    def test_listed_in_registry_and_snapshot(self):
        load_builtin_plugins()
        assert "preempting" in registry_snapshot()["schedule_policy"]


class TestServiceCore:
    def test_live_submissions_bit_identical_to_standalone(self, tmp_path):
        with OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=2,
            evaluate=toy_evaluate,
            journal_fsync=False,
        ) as svc:
            ids = {seed: svc.submit(toy_scenario(seed)) for seed in (3, 4, 5)}
            for seed, sid in ids.items():
                assert svc.wait(sid, timeout=120) == "complete"
                assert service_history(svc, sid) == reference_history(seed)

    def test_worker_allotment_follows_budget_and_quota(self, tmp_path):
        with OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=2,
            worker_budget=4,
            quotas={"alice": TenantQuota(workers=3)},
            evaluate=toy_evaluate,
            journal_fsync=False,
        ) as svc:
            fair_share = svc.submit(toy_scenario(3), tenant="bob")
            by_quota = svc.submit(toy_scenario(3), tenant="alice")
            for sid, n_workers in ((fair_share, 2), (by_quota, 3)):
                assert svc.wait(sid, timeout=120) == "complete"
                assert svc.report(sid)["engine"]["n_workers"] == n_workers
                assert service_history(svc, sid) == reference_history(3)

    def test_events_stream_every_record_exactly_once(self, tmp_path):
        with OptimizationService(
            tmp_path / "state", evaluate=toy_evaluate, journal_fsync=False
        ) as svc:
            sid = svc.submit(toy_scenario(3))
            events = list(svc.events(sid))
        records = [e for e in events if e["event"] == "record"]
        end = events[-1]
        assert end["event"] == "end"
        assert end["status"] == "complete" and end["exit_code"] == 0
        assert [e["index"] for e in records] == list(range(len(records)))
        assert end["n_records"] == len(records)
        # The streamed records are the persisted history, in order.
        history = [
            json.loads(line)
            for line in reference_history(3).decode().splitlines()
        ]
        assert [e["data"] for e in records] == history

    def test_tenant_quota_caps_concurrency_but_not_other_tenants(self, tmp_path):
        release = threading.Event()

        def gated_evaluate(config):
            release.wait(timeout=60)
            return toy_evaluate(config)

        svc = OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=3,
            quotas={"alice": TenantQuota(max_running=1)},
            evaluate=gated_evaluate,
            journal_fsync=False,
        ).start()
        try:
            a1 = svc.submit(toy_scenario(3), tenant="alice")
            a2 = svc.submit(toy_scenario(4), tenant="alice")
            deadline = time.monotonic() + 30
            while svc.status(a1)["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # Give the dispatcher ample passes: alice's second study must
            # stay queued (quota 1) even though two global slots are free.
            time.sleep(0.5)
            assert svc.status(a2)["status"] == "queued"
            # ...while an unconstrained tenant sails past her.
            b1 = svc.submit(toy_scenario(5), tenant="bob")
            deadline = time.monotonic() + 30
            while svc.status(b1)["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert svc.status(a2)["status"] == "queued"
            release.set()
            for seed, sid in ((3, a1), (4, a2), (5, b1)):
                assert svc.wait(sid, timeout=120) == "complete"
                assert service_history(svc, sid) == reference_history(seed)
        finally:
            release.set()
            svc.shutdown()

    def test_max_queued_quota_rejects_submission(self, tmp_path):
        release = threading.Event()

        def gated_evaluate(config):
            release.wait(timeout=60)
            return toy_evaluate(config)

        svc = OptimizationService(
            tmp_path / "state",
            quotas={"alice": TenantQuota(max_queued=1)},
            evaluate=gated_evaluate,
            journal_fsync=False,
        ).start()
        try:
            first = svc.submit(toy_scenario(3), tenant="alice")
            deadline = time.monotonic() + 30
            while svc.status(first)["status"] != "running":  # frees the queue
                assert time.monotonic() < deadline
                time.sleep(0.01)
            svc.submit(toy_scenario(4), tenant="alice")  # fills max_queued=1
            with pytest.raises(ServiceConflictError):
                svc.submit(toy_scenario(5), tenant="alice")
            # Another tenant is not affected by alice's quota.
            svc.submit(toy_scenario(5), tenant="bob")
        finally:
            release.set()
            svc.shutdown()

    def test_preemption_is_deterministic_and_bit_identical(self, tmp_path):
        def slow_evaluate(config):
            time.sleep(0.04)
            return toy_evaluate(config)

        svc = OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=1,
            evaluate=slow_evaluate,
            journal_fsync=False,
        ).start()
        try:
            lo = svc.submit(toy_scenario(7, iterations=5), tenant="alice", priority=0)
            deadline = time.monotonic() + 30
            while svc.status(lo)["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            hi = svc.submit(toy_scenario(9), tenant="bob", priority=5)
            assert svc.wait(hi, timeout=120) == "complete"
            # The higher-priority study finished while the victim was parked:
            # enforced preemption ordering.
            lo_mid = svc.status(lo)
            assert lo_mid["status"] in ("parked", "parking", "queued", "running")
            assert svc.wait(lo, timeout=120) == "complete"
            assert svc.status(lo)["preemptions"] >= 1
            assert service_history(svc, hi) == reference_history(9)
            assert service_history(svc, lo) == reference_history(
                7, iterations=5, evaluate=slow_evaluate
            )
        finally:
            svc.shutdown()

    def test_equal_priority_never_preempts(self, tmp_path):
        def slow_evaluate(config):
            time.sleep(0.05)
            return toy_evaluate(config)

        svc = OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=1,
            evaluate=slow_evaluate,
            journal_fsync=False,
        ).start()
        try:
            first = svc.submit(toy_scenario(7, iterations=8), priority=5)
            deadline = time.monotonic() + 30
            while svc.status(first)["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            second = svc.submit(toy_scenario(9), priority=5)
            time.sleep(0.4)  # several dispatcher passes
            assert svc.status(first)["status"] == "running"
            assert svc.status(first)["preemptions"] == 0
            assert svc.status(second)["status"] == "queued"
            for sid in (first, second):
                assert svc.wait(sid, timeout=120) == "complete"
            assert svc.status(first)["preemptions"] == 0
        finally:
            svc.shutdown()

    def test_cancel_queued_running_and_terminal(self, tmp_path):
        def slow_evaluate(config):
            time.sleep(0.03)
            return toy_evaluate(config)

        svc = OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=1,
            evaluate=slow_evaluate,
            journal_fsync=False,
        ).start()
        try:
            running = svc.submit(toy_scenario(3, iterations=5))
            queued = svc.submit(toy_scenario(4))
            deadline = time.monotonic() + 30
            while svc.status(running)["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert svc.cancel(queued)["status"] == "canceled"
            svc.cancel(running)
            assert svc.wait(running, timeout=120) == "canceled"
            assert svc.status(running)["exit_code"] == 1
            with pytest.raises(ServiceConflictError):
                svc.cancel(running)
            with pytest.raises(UnknownStudyError):
                svc.cancel("never-submitted")
        finally:
            svc.shutdown()

    def test_shutdown_parks_then_restart_resumes_bit_identically(self, tmp_path):
        def slow_evaluate(config):
            time.sleep(0.04)
            return toy_evaluate(config)

        svc = OptimizationService(
            tmp_path / "state", evaluate=slow_evaluate, journal_fsync=False
        ).start()
        sid = svc.submit(toy_scenario(21, iterations=4))
        deadline = time.monotonic() + 30
        while svc.status(sid)["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.15)  # let it make some progress first
        svc.shutdown(park_running=True)
        assert svc.status(sid)["status"] in ("parked", "queued")

        resumed = OptimizationService(
            tmp_path / "state", evaluate=slow_evaluate, journal_fsync=False
        ).start()
        try:
            assert resumed.wait(sid, timeout=120) == "complete"
            assert service_history(resumed, sid) == reference_history(
                21, iterations=4, evaluate=slow_evaluate
            )
        finally:
            resumed.shutdown()

    def test_journal_recovery_requeues_interrupted_studies(self, tmp_path):
        # Simulate a SIGKILLed server: a journal whose last word on the study
        # is "start", plus a run dir parked mid-flight (exactly what a kill
        # at an iteration boundary leaves behind).
        state = tmp_path / "state"
        (state / "studies").mkdir(parents=True)
        scenario = toy_scenario(13, iterations=4)
        study_id = "000000-toy"
        run_dir = state / "studies" / study_id

        polls = {"n": 0}

        def trip_third_boundary():
            polls["n"] += 1
            return polls["n"] >= 3

        from repro.core.engine import SearchPreempted

        with pytest.raises(SearchPreempted):
            Study(scenario, evaluate=toy_evaluate).run(
                run_dir=run_dir, stop_requested=trip_third_boundary
            )
        with (state / JOURNAL_FILE).open("w") as fh:
            for event in (
                {
                    "event": "submit",
                    "id": study_id,
                    "seq": 0,
                    "tenant": "alice",
                    "priority": 2,
                    "scenario": Scenario.coerce(scenario).to_dict(),
                },
                {"event": "start", "id": study_id},
            ):
                fh.write(json.dumps(event) + "\n")

        svc = OptimizationService(
            state, evaluate=toy_evaluate, journal_fsync=False
        ).start()
        try:
            snapshot = svc.status(study_id)
            assert snapshot["tenant"] == "alice" and snapshot["priority"] == 2
            assert svc.wait(study_id, timeout=120) == "complete"
            assert service_history(svc, study_id) == reference_history(
                13, iterations=4
            )
        finally:
            svc.shutdown()

    def test_finished_study_missing_from_journal_is_reloaded(self, tmp_path):
        # A server killed between a study's finalize and its journal append:
        # the run dir is complete but the journal's last word is "start".
        state = tmp_path / "state"
        scenario = toy_scenario(11)
        study_id = "000000-toy"
        run_dir = state / "studies" / study_id
        Study(scenario, evaluate=toy_evaluate).run(run_dir=run_dir)
        # Every run-dir write is an atomic replace, so an unchanged inode
        # means the dir was reloaded, not resumed and rewritten.
        run_json = (run_dir / "run.json").stat()
        with (state / JOURNAL_FILE).open("w") as fh:
            for event in (
                {
                    "event": "submit",
                    "id": study_id,
                    "seq": 0,
                    "tenant": "default",
                    "priority": 0,
                    "scenario": Scenario.from_dict(scenario).to_dict(),
                },
                {"event": "start", "id": study_id},
            ):
                fh.write(json.dumps(event) + "\n")
        calls = []

        def counting(config):
            calls.append(config)
            return toy_evaluate(config)

        svc = OptimizationService(state, evaluate=counting, journal_fsync=False).start()
        try:
            assert svc.wait(study_id, timeout=120) == "complete"
            assert service_history(svc, study_id) == reference_history(11)
            assert svc.report(study_id)["n_evaluations"] > 0
        finally:
            svc.shutdown()
        assert calls == []
        after = (run_dir / "run.json").stat()
        assert (after.st_ino, after.st_mtime_ns) == (run_json.st_ino, run_json.st_mtime_ns)

    def test_invalid_scenario_rejected_at_submit_with_pointer(self, tmp_path):
        with OptimizationService(
            tmp_path / "state", evaluate=toy_evaluate, journal_fsync=False
        ) as svc:
            bad = toy_scenario(3)
            bad["search"]["acquisition"] = "nope"
            with pytest.raises(ScenarioError) as excinfo:
                svc.submit(bad)
            assert excinfo.value.path == "/search/acquisition"
            assert svc.list_studies() == []


class TestServiceHTTP:
    @pytest.fixture()
    def live(self, tmp_path):
        svc = OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=2,
            evaluate=toy_evaluate,
            journal_fsync=False,
        )
        server = start_server(svc, port=0)
        client = ServiceClient(server.url)
        client.wait_healthy(timeout=30)
        yield svc, server, client
        server.shutdown()
        svc.shutdown()

    def test_http_e2e_history_bit_identical(self, live):
        _, _, client = live
        sid = client.submit(toy_scenario(3), tenant="alice", priority=1)
        events = list(client.events(sid))
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] == "complete"
        assert events[-1]["exit_code"] == 0
        snapshot = client.wait(sid, timeout=120)
        assert snapshot["status"] == "complete" and snapshot["exit_code"] == 0
        history = (Path(snapshot["run_dir"]) / HISTORY_FILE).read_bytes()
        assert history == reference_history(3)
        # The streamed records equal the persisted history, in order.
        streamed = [e["data"] for e in events if e["event"] == "record"]
        assert streamed == [json.loads(l) for l in history.decode().splitlines()]
        report = client.report(sid)
        assert report["n_evaluations"] == len(streamed)

    def test_validation_error_maps_to_422_with_pointer(self, live):
        _, _, client = live
        bad = toy_scenario(3)
        bad["search"]["acquisition"] = "nope"
        with pytest.raises(ServiceHTTPError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 422
        assert excinfo.value.exit_code == 2
        assert excinfo.value.path == "/search/acquisition"

    def test_error_statuses_mirror_exit_code_families(self, live):
        _, _, client = live
        with pytest.raises(ServiceHTTPError) as e404:
            client.status("never-submitted")
        assert (e404.value.status, e404.value.exit_code) == (404, 2)
        sid = client.submit(toy_scenario(4))
        client.wait(sid, timeout=120)
        with pytest.raises(ServiceHTTPError) as e409:
            client.cancel(sid)
        assert (e409.value.status, e409.value.exit_code) == (409, 1)

    def test_plugins_endpoint_equals_cli_serializer(self, live, capsys):
        _, _, client = live
        assert cli_main(["list-plugins", "--json"]) == 0
        cli_snapshot = json.loads(capsys.readouterr().out)
        load_builtin_plugins()
        assert client.plugins() == cli_snapshot == registry_snapshot()
        assert "preempting" in cli_snapshot["schedule_policy"]
        assert "fifo" in cli_snapshot["schedule_policy"]

    def test_health_reports_queue_counters(self, live):
        _, _, client = live
        health = client.wait_healthy()
        assert health["status"] == "ok"
        assert health["max_concurrent_studies"] == 2


class TestSharedBrokerService:
    """Socket-backend studies drain through one long-lived worker fleet.

    The service passes its shared :class:`EvaluationBroker` to every
    study; the broker's lifecycle stays with the caller — shutting the
    service down must leave the fleet connected for the next service.
    """

    def socket_scenario(self, seed):
        return dict(
            toy_scenario(seed),
            evaluator=toy_evaluator_section(),
            executor={
                "backend": "socket",
                "n_workers": 2,
                "transport": {"heartbeat_s": 0.5},
            },
        )

    @pytest.fixture()
    def broker(self):
        from repro.core.transport import EvaluationBroker, spawn_local_workers

        with EvaluationBroker(heartbeat_s=0.5) as broker:
            spawn_local_workers(broker.address, 2)
            yield broker

    def test_service_studies_share_broker_and_stay_bit_identical(
        self, tmp_path, broker
    ):
        with OptimizationService(
            tmp_path / "state",
            max_concurrent_studies=2,
            evaluate=toy_evaluate,
            journal_fsync=False,
            broker=broker,
        ) as svc:
            ids = {seed: svc.submit(self.socket_scenario(seed)) for seed in (3, 4)}
            for seed, sid in ids.items():
                assert svc.wait(sid, timeout=120) == "complete"
                assert service_history(svc, sid) == reference_history(seed)
        # The service never owned the broker: the fleet outlives it.
        assert not broker._closing
        assert broker.n_workers_connected == 2


class TestServerKillDrill:
    """SIGKILL the serve process mid-study; restart; resume bit-identically."""

    def _serve(self, state_dir, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--state-dir",
                str(state_dir),
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=cwd,
            env=env,
        )
        line = proc.stdout.readline()
        assert line.startswith("serving on "), line
        return proc, line.split()[2]

    def test_sigkill_midstudy_restart_resumes_bit_identically(self, tmp_path):
        # Self-contained evaluator: the serve subprocess cannot receive a
        # host callable, so use the synthetic slambench workload.
        scenario = {
            "schema_version": 1,
            "name": "drill",
            "evaluator": {
                "type": "slambench",
                "workload": "kfusion",
                "device": "odroid-xu3",
                "n_frames": 8,
                "width": 32,
                "height": 24,
            },
            "search": {
                "algorithm": "hypermapper",
                "n_random_samples": 6,
                "max_iterations": 4,
                "max_samples_per_iteration": 4,
                "pool_size": 200,
            },
            "seed": 17,
        }
        reference = tmp_path / "ref"
        Study(scenario).run(run_dir=reference)

        state = tmp_path / "state"
        proc, url = self._serve(state, tmp_path)
        try:
            client = ServiceClient(url)
            client.wait_healthy(timeout=60)
            sid = client.submit(scenario)
            history = state / "studies" / sid / HISTORY_FILE
            deadline = time.monotonic() + 120
            # Kill only once the study is demonstrably mid-flight.
            while True:
                assert time.monotonic() < deadline, "study never started streaming"
                if history.exists() and len(history.read_bytes().splitlines()) >= 2:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        proc, url = self._serve(state, tmp_path)
        try:
            client = ServiceClient(url)
            client.wait_healthy(timeout=60)
            snapshot = client.wait(sid, timeout=180)
            assert snapshot["status"] == "complete"
            assert snapshot["preemptions"] >= 1  # journal counted the kill
            assert history.read_bytes() == (reference / HISTORY_FILE).read_bytes()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                assert proc.wait(timeout=30) == 0  # clean shutdown exits 0
            finally:
                if proc.poll() is None:
                    proc.kill()


class TestInterleavingProperty:
    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from([3, 4, 5, 6]),  # seed
                st.integers(0, 2),  # priority
                st.sampled_from(["alice", "bob"]),  # tenant
            ),
            min_size=1,
            max_size=4,
        ),
        slots=st.integers(1, 2),
    )
    def test_any_interleaving_is_bit_identical_per_study(self, plan, slots):
        def slow_evaluate(config):
            time.sleep(0.005)  # widens the preemption window
            return toy_evaluate(config)

        state = Path(tempfile.mkdtemp()) / "state"
        svc = OptimizationService(
            state,
            max_concurrent_studies=slots,
            evaluate=slow_evaluate,
            journal_fsync=False,
        ).start()
        try:
            ids = [
                svc.submit(toy_scenario(seed), tenant=tenant, priority=priority)
                for seed, priority, tenant in plan
            ]
            for (seed, _, _), sid in zip(plan, ids):
                assert svc.wait(sid, timeout=120) == "complete"
                assert service_history(svc, sid) == reference_history(
                    seed, evaluate=slow_evaluate
                )
        finally:
            svc.shutdown()
