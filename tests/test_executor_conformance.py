"""Executor conformance: one contract, two backends — plus socket specifics.

``TestExecutorConformance`` runs the shared backend-parametrized contract
suite (see ``executor_conformance.py``) against the thread and socket
backends.  The remaining classes cover what only exists on the socket path:
the wire protocol (framing, handshake, heartbeats, specs and result frames),
the broker's worker bookkeeping, shared-broker lifecycle, and the scenario
``transport`` section.
"""

import collections
import json
import socket
import threading

import numpy as np
import pytest

from executor_conformance import (
    DEADLINE_S,
    SOCKET_TRANSPORT,
    ExecutorContractSuite,
    evaluate_with_deadline,
    gather_with_deadline,
    make_executor,
    make_objectives,
    make_space,
    run_with_deadline,
    scenario_dict,
    socket_scenario,
    toy_evaluate,
    toy_evaluator_section,
    toy_scenario,
    toy_spec,
    wait_for,
)
from repro.core.executor import EvaluationExecutor
from repro.core.faults import FAULT_KINDS
from repro.core.scenario import ScenarioError, validate_scenario
from repro.core.study import build_evaluator
from repro.core.transport import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BrokerShutdown,
    EvalWorker,
    EvaluationBroker,
    recv_frame,
    send_frame,
    spawn_local_workers,
)


class TestExecutorConformance(ExecutorContractSuite):
    """The shared contract, collected for thread and socket."""


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            message = {"type": "task", "id": 7, "payload": "x" * 1000}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_boundary_is_none(self):
        a, b = self._pair()
        try:
            send_frame(a, {"type": "ping"})
            a.close()
            assert recv_frame(b) == {"type": "ping"}
            assert recv_frame(b) is None  # clean close between frames
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        from repro.core.transport import TransportError

        a, b = self._pair()
        try:
            a.sendall(HEADER.pack(100) + b"only-part")
            a.close()
            with pytest.raises(TransportError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_without_reading_it(self):
        from repro.core.transport import TransportError

        a, b = self._pair()
        try:
            a.sendall(HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError, match="frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestHandshake:
    def test_version_mismatch_is_rejected(self):
        with EvaluationBroker() as broker:
            host, port = broker.address
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.settimeout(5.0)
            try:
                send_frame(
                    sock,
                    {"type": "hello", "role": "worker", "proto": PROTOCOL_VERSION + 1},
                )
                reply = recv_frame(sock)
                assert reply["type"] == "reject"
                assert str(PROTOCOL_VERSION) in reply["error"]
            finally:
                sock.close()
            assert broker.n_workers_connected == 0

    def test_wrong_role_is_rejected(self):
        with EvaluationBroker() as broker:
            host, port = broker.address
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.settimeout(5.0)
            try:
                send_frame(sock, {"type": "hello", "role": "gatecrasher", "proto": PROTOCOL_VERSION})
                assert recv_frame(sock)["type"] == "reject"
            finally:
                sock.close()

    def test_worker_adopts_broker_heartbeat(self):
        with EvaluationBroker(heartbeat_s=0.25) as broker:
            host, port = broker.address
            worker = EvalWorker(host, port)
            try:
                worker.connect()
                assert worker.heartbeat_s == 0.25
            finally:
                worker.close()

    def test_connect_to_dead_broker_raises(self):
        from repro.core.transport import TransportError

        broker = EvaluationBroker().start()
        host, port = broker.address
        broker.shutdown()
        with pytest.raises(TransportError):
            EvalWorker(host, port, connect_timeout_s=1.0).connect()


# ---------------------------------------------------------------------------
# Broker behavior
# ---------------------------------------------------------------------------


class TestBroker:
    def test_submit_before_any_worker_queues_then_runs(self):
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            future = broker.submit(toy_spec(), make_space().default_configuration())
            assert not future.done()
            threads = spawn_local_workers(broker.address, 1)
            assert run_with_deadline(
                lambda: future.result(timeout=DEADLINE_S), label="queued task"
            ) == (toy_evaluate(make_space().default_configuration()), None)
            assert threads[0].is_alive()

    def test_shutdown_fails_queued_futures(self):
        broker = EvaluationBroker().start()
        future = broker.submit(toy_spec(), make_space().default_configuration())
        broker.shutdown()
        with pytest.raises(BrokerShutdown):
            future.result(timeout=5.0)

    def test_shutdown_stops_an_idle_accept_thread(self):
        # Closing the listener alone does not wake a thread blocked in
        # accept(); shutdown(wait=True) would then wait out its join timeout.
        broker = EvaluationBroker().start()
        broker.shutdown(wait=True)
        assert not broker._accept_thread.is_alive()

    def test_announce_file_points_at_the_listener(self, tmp_path):
        announce = tmp_path / "broker.json"
        with EvaluationBroker(announce_file=str(announce)) as broker:
            payload = json.loads(announce.read_text())
            assert (payload["host"], payload["port"]) == broker.address

    def test_idle_worker_death_is_not_charged_as_a_fault(self):
        """Killing a worker with nothing in flight never fails a future."""
        space = make_space()
        with make_executor("toy", "socket", n_workers=2) as ex:
            configs = space.sample(3, rng=4)
            assert ex.evaluate(configs) == [toy_evaluate(c) for c in configs]
            broker = ex.broker
            broker.kill_worker(prefer_busy=False)
            wait_for(
                lambda: broker.n_workers_connected == 1,
                message="the killed worker to drop",
            )
            # Fresh (uncached) work still completes on the surviving worker.
            more = space.sample(6, rng=5)
            futures, _ = ex.submit(more)
            assert gather_with_deadline(ex, futures) == [toy_evaluate(c) for c in more]
            assert all(f.attempts is None for f in futures)

    def test_debug_snapshot_shape(self):
        with make_executor("toy", "socket", n_workers=2) as ex:
            ex.evaluate(make_space().sample(2, rng=1))
            snapshot = ex.broker.debug_snapshot()
        assert set(snapshot) >= {"address", "closing", "workers", "queued_task_ids"}
        assert len(snapshot["workers"]) == 2
        for worker in snapshot["workers"]:
            assert set(worker) >= {"id", "name", "inflight", "silent_for_s"}


class TestEvalWorker:
    def test_max_tasks_then_clean_exit(self):
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            host, port = broker.address
            worker = EvalWorker(host, port, max_tasks=2)
            worker.connect()
            done = {}
            thread = threading.Thread(target=lambda: done.update(clean=worker.run()))
            thread.start()
            space = make_space()
            configs = space.sample(2, rng=3)
            futures = [broker.submit(toy_spec(), c) for c in configs]
            results = [
                run_with_deadline(lambda f=f: f.result(timeout=DEADLINE_S), label="task")
                for f in futures
            ]
            thread.join(timeout=DEADLINE_S)
            assert not thread.is_alive()
        assert results == [(toy_evaluate(c), None) for c in configs]
        # Draining its task quota is a clean exit, not a lost broker.
        assert done["clean"] is True

    def test_broker_shutdown_is_a_clean_worker_exit(self):
        broker = EvaluationBroker(heartbeat_s=0.5).start()
        host, port = broker.address
        worker = EvalWorker(host, port)
        worker.connect()
        done = {}
        thread = threading.Thread(target=lambda: done.update(clean=worker.run()))
        thread.start()
        broker.shutdown()
        thread.join(timeout=DEADLINE_S)
        assert not thread.is_alive()
        assert done["clean"] is True


# ---------------------------------------------------------------------------
# Shared broker lifecycle
# ---------------------------------------------------------------------------


class TestSharedBroker:
    def test_two_executors_share_one_broker_and_leave_it_running(self):
        configs = make_space().sample(4, rng=2)
        serial = [toy_evaluate(c) for c in configs]
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            threads = spawn_local_workers(broker.address, 2)
            for _ in range(2):
                with EvaluationExecutor(
                    build_evaluator(toy_scenario()), n_workers=2, backend="socket", broker=broker
                ) as ex:
                    assert ex.broker is broker
                    assert gather_with_deadline(ex, ex.submit(configs)[0]) == serial
                # Closing the executor must NOT tear down the shared broker.
                assert not broker._closing
                assert broker.n_workers_connected == 2
            assert all(t.is_alive() for t in threads)

    def test_broker_kwarg_requires_socket_backend(self):
        objectives = make_objectives()
        with EvaluationBroker() as broker:
            with pytest.raises(ValueError, match="socket"):
                EvaluationExecutor(toy_evaluate, objectives, backend="thread", broker=broker)
        with pytest.raises(ValueError, match="socket"):
            EvaluationExecutor(
                toy_evaluate, objectives, backend="thread", transport={"port": 0}
            )


# ---------------------------------------------------------------------------
# Scenario `transport` section
# ---------------------------------------------------------------------------


class TestTransportScenarioValidation:
    def test_defaults_materialize_only_for_socket(self):
        out = validate_scenario(
            dict(
                scenario_dict(),
                evaluator=toy_evaluator_section(),
                executor={"backend": "socket", "n_workers": 2},
            )
        )
        transport = out["executor"]["transport"]
        assert transport["host"] == "127.0.0.1"
        assert transport["port"] == 0
        assert transport["heartbeat_s"] == 5.0
        assert transport["workers"] == "local"
        assert transport["announce_file"] is None
        # Thread specs stay byte-compatible with pre-socket goldens.
        plain = validate_scenario(dict(scenario_dict(), executor={"n_workers": 2}))
        assert "transport" not in plain["executor"]

    def test_transport_with_non_socket_backend_rejected(self):
        with pytest.raises(ScenarioError, match="only valid with backend 'socket'"):
            validate_scenario(
                dict(
                    scenario_dict(),
                    executor={"backend": "thread", "transport": {"port": 0}},
                )
            )

    @pytest.mark.parametrize(
        "transport, match",
        [
            ({"port": -1}, "port"),
            ({"port": 70000}, "port"),
            ({"heartbeat_s": 0}, "heartbeat_s"),
            ({"workers": "cloud"}, "workers"),
            ({"bogus": 1}, "transport"),
        ],
    )
    def test_rejects_invalid_transport_sections(self, transport, match):
        with pytest.raises(ScenarioError, match=match):
            validate_scenario(
                dict(
                    scenario_dict(),
                    evaluator=toy_evaluator_section(),
                    executor={"backend": "socket", "transport": transport},
                )
            )

    def test_unknown_backend_message_names_all_three(self):
        with pytest.raises(ScenarioError, match="socket") as excinfo:
            validate_scenario(dict(scenario_dict(), executor={"backend": "quantum"}))
        assert "'thread' or 'socket'" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Socket-specific determinism floor
# ---------------------------------------------------------------------------


class TestSocketByteIdentity:
    """The acceptance check: socket histories are byte-identical to serial."""

    def test_history_file_bytes_equal_serial_across_worker_counts(self, tmp_path):
        from repro.core.study import HISTORY_FILE, Study

        scenario = scenario_dict(seed=9)
        ref_dir = tmp_path / "serial"
        Study(scenario, evaluate=toy_evaluate).run(run_dir=ref_dir)
        reference = (ref_dir / HISTORY_FILE).read_bytes()
        for n_workers in (1, 2, 4):
            run_dir = tmp_path / f"socket-{n_workers}"
            run_with_deadline(
                lambda s=socket_scenario(scenario, n_workers), d=run_dir: Study(s).run(
                    run_dir=d
                ),
                label=f"socket study ({n_workers} workers)",
            )
            assert (run_dir / HISTORY_FILE).read_bytes() == reference, n_workers

    def test_killed_worker_mid_study_keeps_bytes_identical(self, tmp_path):
        from repro.core.study import HISTORY_FILE, Study

        scenario = scenario_dict(seed=9)
        ref_dir = tmp_path / "serial"
        Study(scenario, evaluate=toy_evaluate).run(run_dir=ref_dir)
        reference = (ref_dir / HISTORY_FILE).read_bytes()

        run_dir = tmp_path / "socket-killed"
        history = run_dir / HISTORY_FILE
        # Inject the socket executor so the broker stays reachable mid-run.
        with make_executor("slow", "socket", n_workers=3) as ex:
            study = Study(scenario, executor=ex)
            box = {}

            def run():
                box["result"] = study.run(run_dir=run_dir)

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            # Sever one worker once evaluations are demonstrably in flight.
            wait_for(
                lambda: history.exists() and history.read_bytes().count(b"\n") >= 1,
                message="the study to start streaming records",
            )
            ex.broker.kill_worker()
            thread.join(timeout=DEADLINE_S)
            assert not thread.is_alive(), "study hung after worker kill"
        assert history.read_bytes() == reference


# ---------------------------------------------------------------------------
# Specs and results on the wire
# ---------------------------------------------------------------------------

#: The benchmark's KFusion evaluator (``benchmarks/e2e``, seed 0).
E2E_KFUSION_EVALUATOR = {
    "type": "slambench",
    "workload": "kfusion",
    "device": "odroid-xu3",
    "n_frames": 15,
    "width": 64,
    "height": 48,
    "dataset_seed": 1,
}


class FakeWorker:
    """The worker side of the protocol, spoken by hand over a raw socket."""

    def __init__(self, broker):
        self.sock = socket.create_connection(broker.address, timeout=DEADLINE_S)
        self.sock.settimeout(DEADLINE_S)
        send_frame(
            self.sock,
            {"type": "hello", "role": "worker", "proto": PROTOCOL_VERSION, "name": "fake"},
        )
        assert recv_frame(self.sock)["type"] == "welcome"

    def recv(self):
        return recv_frame(self.sock)

    def send(self, message):
        send_frame(self.sock, message)

    def close(self):
        self.sock.close()


def count_spec_frames(monkeypatch):
    """Count the ``spec`` frames the broker sends, per connection."""
    from repro.core import transport

    counts = collections.Counter()
    real_send = transport.send_frame

    def counting_send(sock, message, lock=None):
        if message.get("type") == "spec":
            counts[id(sock)] += 1
        real_send(sock, message, lock)

    monkeypatch.setattr(transport, "send_frame", counting_send)
    return counts


def history_is_empty(run_dir):
    from repro.core.study import HISTORY_FILE

    history = run_dir / HISTORY_FILE
    return not history.exists() or history.read_bytes() == b""


class TestSpecsOnTheWire:
    def test_task_frame_names_the_spec_and_stays_under_1kb(self):
        from repro.core.scenario import Scenario
        from repro.core.transport import spec_digest

        scenario = Scenario.from_dict({"schema_version": 1, "evaluator": E2E_KFUSION_EVALUATOR})
        spec = scenario.evaluation_spec()
        config = build_evaluator(scenario).space.default_configuration()
        digest = spec_digest(spec)
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            future = broker.submit(spec, config)
            worker = FakeWorker(broker)
            try:
                task = worker.recv()
                assert task == {"type": "task", "id": task["id"], "spec": digest, "config": dict(config)}
                wire = json.dumps(task, separators=(",", ":")).encode("utf-8")
                assert HEADER.size + len(wire) < 1024
                # The spec crosses only when asked for, then the task again.
                worker.send({"type": "need_spec", "id": task["id"]})
                assert worker.recv() == {"type": "spec", "hash": digest, "spec": spec}
                assert worker.recv() == task
                worker.send(
                    {"type": "result", "id": task["id"], "ok": True, "metrics": {"x": 1}, "attempts": None}
                )
                assert future.result(timeout=DEADLINE_S) == ({"x": 1.0}, None)
            finally:
                worker.close()

    def test_one_spec_frame_per_connection(self, monkeypatch):
        counts = count_spec_frames(monkeypatch)
        configs = make_space().sample(20, rng=12)
        with make_executor("slow", "socket", n_workers=2) as ex:
            assert evaluate_with_deadline(ex, configs) == [toy_evaluate(c) for c in configs]
        assert sorted(counts.values()) == [1, 1]

    def test_an_evicted_spec_comes_back_through_need_spec(self, monkeypatch):
        from repro.core import transport

        monkeypatch.setattr(transport, "WORKER_SPEC_SLOTS", 1)
        counts = count_spec_frames(monkeypatch)
        config = make_space().default_configuration()
        first, second = toy_spec("toy"), toy_spec("slow_first")
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            spawn_local_workers(broker.address, 1)
            outcomes = [
                run_with_deadline(
                    lambda s=spec: broker.submit(s, config).result(timeout=DEADLINE_S),
                    label="task",
                )
                for spec in (first, second, first)
            ]
        assert outcomes[0] == outcomes[2] == (toy_evaluate(config), None)
        assert sum(counts.values()) == 3  # the second spec evicted the first

    def test_workers_keep_their_evaluator_across_tasks(self, monkeypatch):
        import repro.slam.kfusion as kfusion
        from repro.core.study import Study

        calls = []
        real_filter = kfusion.bilateral_filter

        def counting_filter(*args, **kwargs):
            calls.append(1)
            return real_filter(*args, **kwargs)

        monkeypatch.setattr(kfusion, "bilateral_filter", counting_filter)
        scenario = {
            "schema_version": 1,
            "name": "kept",
            "evaluator": dict(E2E_KFUSION_EVALUATOR, n_frames=8, width=32, height=24),
            "search": {"algorithm": "random", "budget": 10},
            "executor": {"backend": "socket", "n_workers": 2, "transport": {"heartbeat_s": 0.5}},
            "seed": 0,
        }
        result = run_with_deadline(lambda: Study(scenario).run(), label="slambench study")
        assert len(result.history) == 10
        # Each worker filters its 8 frames once; a rebuilt evaluator would
        # filter them again for every task.
        assert len(calls) <= 16


MALFORMED_RESULTS = {
    "metrics-not-an-object": {"ok": True, "metrics": [0.1, 1.0], "attempts": None},
    "metric-not-a-number": {"ok": True, "metrics": {"err": "0.1", "cost": 1.0}, "attempts": None},
    "metric-a-boolean": {"ok": True, "metrics": {"err": True, "cost": 1.0}, "attempts": None},
    "attempts-not-a-list": {"ok": True, "metrics": {"err": 0.1, "cost": 1.0}, "attempts": "x"},
    "attempt-not-an-object": {"ok": True, "metrics": {"err": 0.1, "cost": 1.0}, "attempts": [1]},
    "ok-missing": {"metrics": {"err": 0.1, "cost": 1.0}},
    "error-without-message": {"ok": False, "error": {"kind": None, "type": "RuntimeError"}},
    "error-of-unknown-kind": {"ok": False, "error": {"kind": "gremlins", "type": "E", "message": "m"}},
}


class TestBadResultsAndSpecs:
    @pytest.mark.parametrize("kind", [*FAULT_KINDS, None])
    def test_reported_failure_comes_back_typed(self, kind):
        from repro.core.faults import EvaluationFault, EvaluatorError, wrap_failure

        config = make_space().default_configuration()
        error = {"kind": kind, "type": "RuntimeError", "message": "board caught fire"}
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            future = broker.submit(toy_spec(), config)
            worker = FakeWorker(broker)
            try:
                task = worker.recv()
                worker.send({"type": "result", "id": task["id"], "ok": False, "error": error})
                with pytest.raises(EvaluationFault) as excinfo:
                    future.result(timeout=DEADLINE_S)
            finally:
                worker.close()
        fault = excinfo.value
        assert fault.config is config
        if kind is None:  # worded exactly as an in-process failure
            assert type(fault) is EvaluatorError
            assert str(fault) == str(wrap_failure(config, RuntimeError("board caught fire")))
        else:
            assert (fault.kind, str(fault)) == (kind, "board caught fire")

    def test_a_configuration_json_cannot_carry_fails_only_its_task(self):
        from repro.core.space import Configuration
        from repro.core.transport import TransportError

        bad = Configuration(["a", "b", "fast"], [np.int64(2), 0.1, False])
        good = make_space().default_configuration()
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            spawn_local_workers(broker.address, 1)
            first, second = broker.submit(toy_spec(), bad), broker.submit(toy_spec(), good)
            with pytest.raises(TransportError, match="not JSON"):
                first.result(timeout=DEADLINE_S)
            assert second.result(timeout=DEADLINE_S) == (toy_evaluate(good), None)

    def test_worker_refuses_a_spec_that_does_not_match_its_hash(self):
        worker = EvalWorker("127.0.0.1", 9)  # never connects: frames are handed in
        worker._load_spec({"type": "spec", "hash": "0" * 64, "spec": toy_spec()})
        config = dict(make_space().default_configuration())
        reply = worker._execute({"type": "task", "id": 1, "spec": "0" * 64, "config": config})
        assert reply["ok"] is False
        assert reply["error"]["kind"] == "spec"
        assert "does not match its hash" in reply["error"]["message"]

    @pytest.mark.parametrize(
        "reply", [*MALFORMED_RESULTS.values(), None], ids=[*MALFORMED_RESULTS, "need-spec-twice"]
    )
    def test_bad_reply_fails_its_task_and_writes_no_history(self, tmp_path, reply):
        from repro.core.study import Study
        from repro.core.transport import TransportError

        with EvaluationBroker(heartbeat_s=0.5) as broker:
            worker = FakeWorker(broker)

            def serve():
                try:
                    while True:
                        task = worker.recv()
                        if task is None:
                            return
                        if task["type"] != "task":
                            continue
                        if reply is not None:
                            worker.send(dict(reply, type="result", id=task["id"]))
                            continue
                        worker.send({"type": "need_spec", "id": task["id"]})
                        while worker.recv()["type"] != "task":  # the spec, then the task
                            pass
                        worker.send({"type": "need_spec", "id": task["id"]})
                except (OSError, TransportError):
                    return

            threading.Thread(target=serve, daemon=True).start()
            try:
                with EvaluationExecutor(
                    build_evaluator(toy_scenario()), n_workers=2, backend="socket", broker=broker
                ) as ex, pytest.raises(TransportError):
                    run_with_deadline(
                        lambda: Study(scenario_dict(), executor=ex).run(run_dir=tmp_path / "run"),
                        label="study",
                    )
            finally:
                worker.close()
        assert history_is_empty(tmp_path / "run")

    def test_unbuildable_spec_fails_the_study_naming_type_and_worker(self, tmp_path):
        from repro.core.faults import FaultPolicy
        from repro.core.scenario import Scenario
        from repro.core.study import Study
        from repro.core.transport import TransportError

        # Scenarios refuse a host callable on socket workers; a hand-built
        # executor still ships its spec, which no worker can build.
        with EvaluationExecutor(
            build_evaluator(Scenario.from_dict(scenario_dict()), evaluate=toy_evaluate),
            n_workers=2,
            backend="socket",
            transport=SOCKET_TRANSPORT,
            # Never retried or quarantined, whatever the policy says.
            fault_policy=FaultPolicy(max_retries=3, quarantine=True),
        ) as ex:
            with pytest.raises(TransportError) as excinfo:
                run_with_deadline(
                    lambda: Study(scenario_dict(), executor=ex).run(run_dir=tmp_path / "run"),
                    label="study",
                )
        message = str(excinfo.value)
        assert "evaluator type 'function'" in message
        assert "(local-" in message  # the worker's name
        assert history_is_empty(tmp_path / "run")


class TestRefusals:
    def _write(self, tmp_path, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return str(path)

    def test_function_evaluator_on_socket_workers_is_refused(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.scenario import Scenario

        scenario = dict(scenario_dict(), executor={"backend": "socket", "n_workers": 2})
        with pytest.raises(ScenarioError) as excinfo:
            Scenario.from_dict(scenario)
        assert excinfo.value.path == "/executor/backend"
        assert "'thread'" in excinfo.value.reason
        assert cli_main(["validate", self._write(tmp_path, scenario)]) == 2
        assert "/executor/backend" in capsys.readouterr().err

    def test_process_backend_is_refused_naming_the_alternatives(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.scenario import Scenario

        scenario = dict(scenario_dict(), executor={"backend": "process", "n_workers": 2})
        with pytest.raises(ScenarioError) as excinfo:
            Scenario.from_dict(scenario)
        assert excinfo.value.path == "/executor/backend"
        for name in ("'thread'", "'socket'", "repro eval-worker"):
            assert name in excinfo.value.reason
        assert cli_main(["validate", self._write(tmp_path, scenario)]) == 2
        assert "/executor/backend" in capsys.readouterr().err
        with pytest.raises(ValueError, match="thread"):
            EvaluationExecutor(toy_evaluate, make_objectives(), n_workers=2, backend="process")

    def test_old_run_dir_naming_the_process_backend_is_refused(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.study import Study

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        scenario = dict(scenario_dict(), executor={"backend": "process", "n_workers": 2})
        (run_dir / "scenario.json").write_text(json.dumps(scenario))
        with pytest.raises(ScenarioError, match="repro eval-worker"):
            Study.resume(run_dir, evaluate=toy_evaluate)
        assert cli_main(["resume", str(run_dir)]) == 2
        assert "/executor/backend" in capsys.readouterr().err

    def test_socket_executor_refuses_a_bare_callable(self):
        with pytest.raises(ValueError, match="backend='thread'"):
            EvaluationExecutor(toy_evaluate, make_objectives(), backend="socket")

    def test_protocol_1_hello_is_rejected_naming_both_versions(self):
        with EvaluationBroker() as broker:
            sock = socket.create_connection(broker.address, timeout=5.0)
            sock.settimeout(5.0)
            try:
                send_frame(sock, {"type": "hello", "role": "worker", "proto": 1})
                reply = recv_frame(sock)
            finally:
                sock.close()
        assert reply["type"] == "reject"
        assert reply["error"] == f"protocol version 1 != {PROTOCOL_VERSION}"
        assert PROTOCOL_VERSION == 2
