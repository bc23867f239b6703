"""Synthetic fleet of crowd-sourced mobile devices (Fig. 5 substrate).

The paper's crowd-sourcing experiment runs the SLAMBench Android app on 83
smart-phones and tablets from the market, almost all ARM-based, spanning the
2013-2017 performance range.  We generate a matching synthetic fleet: GPU
throughput, memory bandwidth and driver overheads are drawn from log-uniform
ranges bracketing that hardware generation (Mali-400 class up to Adreno
530/Mali-G71 class), with a few Intel-based tablets mixed in.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.devices.model import DeviceModel
from repro.utils.rng import RandomState, as_generator

_GPU_FAMILIES: Sequence[str] = (
    "Mali-400 MP4",
    "Mali-T604",
    "Mali-T628 MP6",
    "Mali-T760 MP8",
    "Mali-T880 MP12",
    "Mali-G71 MP8",
    "Adreno 305",
    "Adreno 320",
    "Adreno 330",
    "Adreno 420",
    "Adreno 430",
    "Adreno 530",
    "PowerVR G6430",
    "PowerVR GX6450",
    "Tegra K1",
    "Intel HD (Atom)",
)


def make_mobile_fleet(
    n_devices: int = 83,
    seed: RandomState = 20170602,
) -> List[DeviceModel]:
    """Generate ``n_devices`` plausible 2013-2017 mobile device models.

    The default ``n_devices=83`` matches the number of phones and tablets that
    ran the crowd-sourced SLAMBench app in the paper.
    """
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    rng = as_generator(seed)
    devices: List[DeviceModel] = []
    for i in range(n_devices):
        family = _GPU_FAMILIES[int(rng.integers(len(_GPU_FAMILIES)))]
        # Effective GPU throughput: 4 .. 180 GFLOP/s (log-uniform).
        gflops = float(np.exp(rng.uniform(np.log(4.0), np.log(180.0))))
        # Effective shared-memory bandwidth: 1.5 .. 18 GB/s, loosely correlated
        # with compute (newer SoCs have both more FLOPs and more bandwidth).
        correlated = np.interp(np.log(gflops), [np.log(4.0), np.log(180.0)], [np.log(1.8), np.log(14.0)])
        bandwidth = float(np.exp(correlated + rng.normal(scale=0.35)))
        bandwidth = float(np.clip(bandwidth, 1.2, 20.0))
        # Driver/dispatch overhead: Android OpenCL stacks vary wildly.
        overhead_us = float(np.exp(rng.uniform(np.log(60.0), np.log(600.0))))
        frame_overhead = float(rng.uniform(1.5, 6.0))
        devices.append(
            DeviceModel(
                name=f"Device-{i + 1:03d} ({family})",
                gflops=gflops,
                bandwidth_gbs=bandwidth,
                kernel_overhead_us=overhead_us,
                frame_overhead_ms=frame_overhead,
                category="mobile",
            )
        )
    return devices


__all__ = ["make_mobile_fleet"]
