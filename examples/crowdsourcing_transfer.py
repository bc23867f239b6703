#!/usr/bin/env python3
"""Zero-shot transfer of a tuned configuration to a fleet of mobile devices.

Reproduces the Fig. 5 story at example scale: the best-runtime configuration
found on the (simulated) ODROID-XU3 is benchmarked against the default on a
synthetic fleet of Android-class devices, and the per-device speedups plus the
cross-device runtime correlations are reported.

Run with:  python examples/crowdsourcing_transfer.py
"""

from repro.crowd.analysis import cross_device_correlation, speedup_statistics
from repro.crowd.app import run_crowd_experiment
from repro.crowd.database import CrowdDatabase
from repro.devices.catalog import ODROID_XU3
from repro.devices.mobile import make_mobile_fleet
from repro.slambench.workloads import get_workload
from repro.utils.tables import format_table


def main() -> None:
    # The workload registry supplies runner, default configuration and design
    # space by name — the same resolution path scenario files use.
    workload = get_workload("kfusion")
    runner = workload.make_runner(n_frames=25, width=56, height=42, dataset_seed=3)

    default = dict(workload.default_config())
    # A hand-picked "tuned" configuration in the spirit of the ODROID Pareto
    # front: small volume, half-resolution input, sparser integration.
    tuned = dict(
        default,
        volume_resolution=64,
        compute_size_ratio=2,
        integration_rate=3,
        pyramid_iterations_0=4,
        pyramid_iterations_1=3,
        pyramid_iterations_2=2,
        icp_threshold=1e-4,
    )

    fleet = make_mobile_fleet(n_devices=30, seed=2017)
    database = CrowdDatabase()
    runs = run_crowd_experiment(runner, fleet, default, tuned, n_frames=100, database=database)

    stats = speedup_statistics(runs)
    print(
        f"speedup of the tuned configuration over the default across {len(runs)} devices: "
        f"{stats['min']:.1f}x .. {stats['max']:.1f}x (median {stats['median']:.1f}x)"
    )

    rows = [
        [r.device.name, f"{r.default_runtime_s * 1000:.0f}", f"{r.tuned_runtime_s * 1000:.0f}", f"{r.speedup:.1f}x"]
        for r in sorted(runs, key=lambda r: -r.speedup)[:10]
    ]
    print()
    print(format_table(rows, headers=["device", "default ms/frame", "tuned ms/frame", "speedup"], title="Top 10 devices by speedup"))

    # Why does the transfer work?  Per-configuration runtimes are strongly
    # rank-correlated between the tuning device and the fleet devices.
    probes = [dict(c) for c in workload.space().sample(12, rng=0)]
    corr = cross_device_correlation(runner, probes, ODROID_XU3, fleet[0])
    print(
        f"\nruntime correlation between {ODROID_XU3.name} and {fleet[0].name} over {len(probes)} configurations: "
        f"Pearson {corr['pearson']:.3f}, Spearman {corr['spearman']:.3f}"
    )
    print(f"database holds {len(database)} uploaded results")


if __name__ == "__main__":
    main()
