"""Executor conformance: one contract, three backends — plus socket specifics.

``TestExecutorConformance`` runs the shared backend-parametrized contract
suite (see ``executor_conformance.py``) against the thread, process, and
socket backends.  The remaining classes cover what only exists on the socket
path: the wire protocol (framing, handshake, heartbeats), the broker's
worker bookkeeping, shared-broker lifecycle, and the scenario ``transport``
section.
"""

import json
import socket
import threading

import pytest

from executor_conformance import (
    DEADLINE_S,
    ExecutorContractSuite,
    gather_with_deadline,
    make_executor,
    make_objectives,
    make_space,
    run_with_deadline,
    scenario_dict,
    slow_toy_evaluate,
    toy_evaluate,
    wait_for,
)
from repro.core.executor import EvaluationExecutor
from repro.core.scenario import ScenarioError, validate_scenario
from repro.core.transport import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BrokerShutdown,
    EvalWorker,
    EvaluationBroker,
    dumps_b64,
    loads_b64,
    recv_frame,
    send_frame,
    spawn_local_workers,
)


class TestExecutorConformance(ExecutorContractSuite):
    """The shared contract, collected for thread, process, and socket."""


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

    def test_pickle_payload_roundtrip(self):
        obj = ({"a": 1}, [1.5, None], "text")
        assert loads_b64(dumps_b64(obj)) == obj


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
            future = broker.submit(toy_evaluate, make_space().default_configuration())
            assert not future.done()
            threads = spawn_local_workers(broker.address, 1)
            assert run_with_deadline(
                lambda: future.result(timeout=DEADLINE_S), label="queued task"
            ) == toy_evaluate(make_space().default_configuration())
            assert threads[0].is_alive()

    def test_shutdown_fails_queued_futures(self):
        broker = EvaluationBroker().start()
        future = broker.submit(toy_evaluate, make_space().default_configuration())
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
        space, objectives = make_space(), make_objectives()
        with make_executor(toy_evaluate, objectives, "socket", n_workers=2) as ex:
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
        with make_executor(toy_evaluate, make_objectives(), "socket", n_workers=2) as ex:
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
            futures = [broker.submit(toy_evaluate, c) for c in configs]
            results = [
                run_with_deadline(lambda f=f: f.result(timeout=DEADLINE_S), label="task")
                for f in futures
            ]
            thread.join(timeout=DEADLINE_S)
            assert not thread.is_alive()
        assert results == [toy_evaluate(c) for c in configs]
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
        space, objectives = make_space(), make_objectives()
        configs = space.sample(4, rng=2)
        serial = [toy_evaluate(c) for c in configs]
        with EvaluationBroker(heartbeat_s=0.5) as broker:
            threads = spawn_local_workers(broker.address, 2)
            for _ in range(2):
                with EvaluationExecutor(
                    toy_evaluate, objectives, n_workers=2, backend="socket", broker=broker
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
                toy_evaluate, objectives, backend="process", transport={"port": 0}
            )


# ---------------------------------------------------------------------------
# Scenario `transport` section
# ---------------------------------------------------------------------------


class TestTransportScenarioValidation:
    def test_defaults_materialize_only_for_socket(self):
        out = validate_scenario(
            dict(scenario_dict(), executor={"backend": "socket", "n_workers": 2})
        )
        transport = out["executor"]["transport"]
        assert transport["host"] == "127.0.0.1"
        assert transport["port"] == 0
        assert transport["heartbeat_s"] == 5.0
        assert transport["workers"] == "local"
        assert transport["announce_file"] is None
        # Thread/process specs stay byte-compatible with pre-socket goldens.
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
                    executor={"backend": "socket", "transport": transport},
                )
            )

    def test_unknown_backend_message_names_all_three(self):
        with pytest.raises(ScenarioError, match="socket"):
            validate_scenario(dict(scenario_dict(), executor={"backend": "quantum"}))


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
            socket_scenario = dict(
                scenario,
                executor={
                    "backend": "socket",
                    "n_workers": n_workers,
                    "transport": {"heartbeat_s": 0.5},
                },
            )
            run_with_deadline(
                lambda s=socket_scenario, d=run_dir: Study(s, evaluate=toy_evaluate).run(
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
        with make_executor(slow_toy_evaluate, make_objectives(), "socket", n_workers=3) as ex:
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
