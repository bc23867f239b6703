"""Real-subprocess ``repro eval-worker`` drill (SIGKILL recovery).

The conformance suite kills *local* worker threads through the broker API;
this module runs the production topology: a study whose transport declares
``workers: "external"`` plus real eval-worker OS processes connecting over
loopback TCP (launched through ``toy_eval_worker.py``, which registers the
toy evaluator plugin before it runs ``repro eval-worker``).  One worker is SIGKILLed mid-batch;
the broker must silently resubmit its in-flight evaluation and the final
``history.jsonl`` must stay byte-identical to a serial run — the same drill
pattern the sweep workers (PR 7) and the serve process (PR 9) get.

Every wait is bounded (deadline satellite): subprocess reads, history polls,
and the study join all fail with a stack dump instead of hanging CI.
"""

import faulthandler
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from executor_conformance import (
    DEADLINE_S,
    scenario_dict,
    toy_evaluate,
    toy_evaluator_section,
    wait_for,
)
from repro.cli import main as cli_main
from repro.core.study import HISTORY_FILE, Study

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent


def _worker_env():
    """Subprocess env: workers import the library from src/ and the toy
    evaluator plugin from tests/."""
    env = dict(os.environ)
    parts = [str(SRC), str(TESTS)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def spawn_eval_workers(host, port, n):
    """Start ``n`` eval-worker processes; block (bounded) until all serve.

    Spawned concurrently — interpreter startup dominates, and the drill
    needs the whole fleet connected while the study is still mid-flight.
    """
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                str(TESTS / "toy_eval_worker.py"),
                "--connect",
                f"{host}:{port}",
                "--name",
                f"drill-{i}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_worker_env(),
        )
        for i in range(n)
    ]
    banners = [None] * n

    def read_banner(i):
        banners[i] = procs[i].stdout.readline()

    readers = [
        threading.Thread(target=read_banner, args=(i,), daemon=True) for i in range(n)
    ]
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join(DEADLINE_S)
    stuck = [
        (i, banners[i])
        for i, reader in enumerate(readers)
        if reader.is_alive() or "serving" not in (banners[i] or "")
    ]
    if stuck:
        for proc in procs:
            proc.kill()
        pytest.fail(f"workers never announced serving: {stuck!r}")
    return procs


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestEvalWorkerCLI:
    @pytest.mark.parametrize(
        "connect",
        ["nocolon", ":9", "host:notaport", "host:0", "host:70000"],
    )
    def test_bad_connect_is_usage_error(self, connect, capsys):
        assert cli_main(["eval-worker", "--connect", connect]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_max_tasks_is_usage_error(self, capsys):
        assert (
            cli_main(
                ["eval-worker", "--connect", "127.0.0.1:9999", "--max-tasks", "0"]
            )
            == 2
        )
        assert "--max-tasks" in capsys.readouterr().err

    def test_unreachable_broker_fails_after_bounded_retries(self, capsys):
        port = _free_port()  # nothing listens here
        box = {}

        def attempt():
            box["code"] = cli_main(
                [
                    "eval-worker",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--connect-timeout",
                    "0.5",
                ]
            )

        thread = threading.Thread(target=attempt, daemon=True)
        thread.start()
        thread.join(DEADLINE_S)
        assert not thread.is_alive(), "connect retry loop did not respect its timeout"
        assert box["code"] == 1
        assert "error:" in capsys.readouterr().err


class TestEvalWorkerSigkillDrill:
    SEED = 5

    def _socket_scenario(self, announce_file):
        scenario = scenario_dict(seed=self.SEED)
        # drill: same metrics as toy_evaluate, but each evaluation sleeps —
        # the kill lands while work is in flight.
        scenario["evaluator"] = toy_evaluator_section("drill")
        scenario["executor"] = {
            "backend": "socket",
            "n_workers": 3,
            "transport": {
                "workers": "external",
                "port": 0,
                "heartbeat_s": 0.5,
                "announce_file": str(announce_file),
            },
        }
        return scenario

    def test_sigkill_one_worker_midstudy_history_bit_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        Study(scenario_dict(seed=self.SEED), evaluate=toy_evaluate).run(
            run_dir=serial_dir
        )
        reference = (serial_dir / HISTORY_FILE).read_bytes()

        announce = tmp_path / "broker.json"
        run_dir = tmp_path / "socket"
        failures = []

        def run_study():
            try:
                Study(self._socket_scenario(announce)).run(run_dir=run_dir)
            except BaseException as exc:  # surfaced after the join
                failures.append(exc)

        study = threading.Thread(target=run_study, name="drill-study", daemon=True)
        study.start()
        procs = []
        try:
            wait_for(lambda: announce.exists(), message="broker announce file")
            address = json.loads(announce.read_text())
            procs = spawn_eval_workers(address["host"], address["port"], 3)
            history = run_dir / HISTORY_FILE
            wait_for(
                lambda: history.exists() and history.read_bytes().count(b"\n") >= 1,
                message="first persisted history record",
            )
            procs[0].send_signal(signal.SIGKILL)
            assert procs[0].wait(timeout=30) == -signal.SIGKILL

            study.join(DEADLINE_S)
            if study.is_alive():
                faulthandler.dump_traceback(file=sys.stderr)
                pytest.fail("study did not finish before the deadline", pytrace=False)
            assert not failures, failures

            # Byte-identity despite the mid-batch worker death: the broker
            # resubmitted the victim's in-flight evaluation silently.
            assert history.read_bytes() == reference

            # The study's broker shut down with its executor; the two
            # surviving workers saw the shutdown frame and exited cleanly.
            for proc in procs[1:]:
                assert proc.wait(timeout=30) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
