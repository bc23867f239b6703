#!/usr/bin/env python3
"""Service quickstart: submit studies to a live optimization service.

The always-on counterpart of ``examples/quickstart.py``: instead of running
one study in-process, this starts the multi-tenant service (the machinery
behind ``python -m repro serve``), opens its HTTP/JSON front door on an
ephemeral port, and drives it with the thin stdlib client — submission,
streamed NDJSON progress events, priority preemption between two tenants,
and the report — then checks the serviced history is byte-identical to a
standalone ``Study.run`` of the same scenario.

The same flow over a real network boundary:

    python -m repro serve --state-dir runs/service --port 8765 &
    python -m repro submit examples/scenarios/quickstart.json --follow

See ``docs/service.md`` for the endpoint and event-stream reference.

Run with:  python examples/service_quickstart.py
"""

import json
import os
import tempfile

from repro.core.client import ServiceClient
from repro.core.server import start_server
from repro.core.service import OptimizationService, TenantQuota
from repro.core.study import Study

SCENARIO = os.path.join(os.path.dirname(__file__), "scenarios", "quickstart.json")


def tiny_scenario(seed: int, name: str) -> dict:
    """A seconds-scale synthetic-SLAM scenario (self-contained: the
    slambench evaluator needs no host callable, so it survives the HTTP
    boundary and server restarts)."""
    return {
        "schema_version": 1,
        "name": name,
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
            "max_iterations": 2,
            "max_samples_per_iteration": 3,
            "pool_size": 200,
        },
        "seed": seed,
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        # 1. A reference run the ordinary way, for the bit-identity check.
        scenario = tiny_scenario(seed=11, name="serviced")
        reference = Study(scenario).run(run_dir=os.path.join(tmp, "reference"))

        # 2. The service: 1 slot + quotas, so the tenants below actually
        #    contend, and the priority-5 submission preempts the running one.
        service = OptimizationService(
            os.path.join(tmp, "state"),
            max_concurrent_studies=1,
            policy="preempting",
            quotas={"alice": TenantQuota(max_running=1)},
        )
        server = start_server(service, port=0)  # ephemeral port
        client = ServiceClient(server.url)
        print(f"service up at {server.url}: {client.health()}")

        # 3. Submit for two tenants; bob outranks alice, so alice's running
        #    study parks at its next checkpoint and resumes afterwards.
        alice = client.submit(scenario, tenant="alice", priority=0)
        bob = client.submit(tiny_scenario(seed=23, name="urgent"), tenant="bob", priority=5)

        # 4. Stream alice's NDJSON events; the park/resume shows up as
        #    status transitions between the record events.
        transitions, n_records = [], 0
        for event in client.events(alice):
            if event["event"] == "status":
                transitions.append(event["status"])
            elif event["event"] == "record":
                n_records += 1
            else:  # the final "end" event carries the CLI-equivalent exit code
                print(
                    f"alice study {event['id']}: {event['status']} "
                    f"(exit_code={event['exit_code']}, {n_records} records)"
                )
        print(f"alice lifecycle: {' -> '.join(transitions)}")
        preemptions = client.status(alice)["preemptions"]
        print(f"alice was preempted {preemptions} time(s) by bob's priority-5 study")

        # 5. Reports come from the same persisted artifacts `repro report`
        #    reads, and the serviced history is byte-identical to the
        #    standalone run — preemption and all.
        report = client.report(alice)
        print(
            f"alice report: {report['n_evaluations']} evaluations, "
            f"{report['n_pareto']} Pareto points"
        )
        assert client.wait(bob)["status"] == "complete"
        serviced = os.path.join(
            client.status(alice)["run_dir"], "history.jsonl"
        )
        with open(serviced, "rb") as fh:
            serviced_bytes = fh.read()
        with open(os.path.join(str(reference.run_dir), "history.jsonl"), "rb") as fh:
            reference_bytes = fh.read()
        assert serviced_bytes == reference_bytes
        print("serviced history.jsonl is byte-identical to the standalone run")

        # 6. The machine-readable plugin list is one serializer everywhere:
        #    /v1/plugins == `repro list-plugins --json`.
        policies = client.plugins()["schedule_policy"]
        print(f"schedule policies: {', '.join(policies)}")

        server.shutdown()
        service.shutdown()  # parks nothing here (all done); journals + exits
        print("clean shutdown", json.dumps(service.health()["studies"]))


if __name__ == "__main__":
    main()
