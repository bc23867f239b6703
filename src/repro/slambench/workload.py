"""Per-kernel workload model: algorithmic parameters -> FLOPs and bytes.

The runtime objective of the design-space exploration is estimated from the
work each GPU kernel performs at the *nominal* sensor resolution (640x480).
Work quantities are functions of the algorithmic parameters and of the logical
per-frame counters recorded by the pipelines (ICP iterations actually
executed, voxels integrated, surfels active, ...), so the runtime responds to
both the static configuration and the dynamic behaviour it induces.

The per-pixel / per-voxel constants below are rough operation counts of the
corresponding SLAMBench OpenCL kernels and ElasticFusion CUDA kernels; the
absolute scale is anchored so that the default configurations reproduce the
operating points the paper reports (about 6 FPS for KFusion on the
ODROID-XU3 and about 45 FPS for ElasticFusion on the GTX 780 Ti).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.devices.model import DeviceModel, KernelCost
from repro.slam.pipeline import FrameStats

NOMINAL_WIDTH = 640
NOMINAL_HEIGHT = 480
NOMINAL_PIXELS = NOMINAL_WIDTH * NOMINAL_HEIGHT

# ElasticFusion's global-model bookkeeping (index-map building, deformation
# graph, fern encoding) is heavier per element than the raw arithmetic
# suggests; this factor anchors the default configuration at the paper's
# reported ~45 FPS on the GTX 780 Ti.
_EF_MODEL_SCALE = 350.0


def _pyramid_pixel_counts(n_pixels: int, levels: int = 3) -> List[int]:
    return [max(n_pixels // (4**level), 1) for level in range(levels)]


def kfusion_frame_kernels(stats: FrameStats, config: Mapping[str, object]) -> List[KernelCost]:
    """Kernel work of one KFusion frame under ``config``.

    ``stats`` provides the dynamic counters (whether the frame was tracked /
    integrated and how many ICP iterations actually ran); ``config`` provides
    the static parameters (compute-size ratio, volume resolution, pyramid
    iteration schedule).
    """
    csr = int(config["compute_size_ratio"])
    resolution = int(config["volume_resolution"])
    n_pixels = (NOMINAL_WIDTH // csr) * (NOMINAL_HEIGHT // csr)
    level_pixels = _pyramid_pixel_counts(n_pixels)
    kernels: List[KernelCost] = [
        KernelCost("mm2meters", flops=2.0 * NOMINAL_PIXELS, bytes=6.0 * NOMINAL_PIXELS),
        KernelCost("bilateral_filter", flops=200.0 * n_pixels, bytes=8.0 * n_pixels),
        KernelCost("half_sample", flops=8.0 * sum(level_pixels[1:]), bytes=5.0 * sum(level_pixels[1:]), launches=2),
        KernelCost("depth2vertex", flops=9.0 * sum(level_pixels), bytes=16.0 * sum(level_pixels), launches=3),
        KernelCost("vertex2normal", flops=20.0 * sum(level_pixels), bytes=24.0 * sum(level_pixels), launches=3),
    ]

    if stats.tracked:
        # Distribute the executed iterations across pyramid levels in
        # proportion to the configured schedule.
        schedule = np.array(
            [
                float(config.get("pyramid_iterations_0", 10)),
                float(config.get("pyramid_iterations_1", 5)),
                float(config.get("pyramid_iterations_2", 4)),
            ]
        )
        total_conf = schedule.sum()
        if total_conf <= 0:
            schedule = np.array([1.0, 0.0, 0.0])
            total_conf = 1.0
        executed = stats.icp_iterations * schedule / total_conf
        track_flops = 0.0
        track_bytes = 0.0
        reduce_flops = 0.0
        reduce_bytes = 0.0
        launches = 0
        for level, iters in enumerate(executed):
            pix = level_pixels[min(level, len(level_pixels) - 1)]
            track_flops += 55.0 * pix * iters
            track_bytes += 48.0 * pix * iters
            reduce_flops += 22.0 * pix * iters
            reduce_bytes += 4.0 * pix * iters
            launches += int(np.ceil(iters)) * 2
        kernels.append(KernelCost("track", flops=track_flops, bytes=track_bytes, launches=max(launches // 2, 1)))
        kernels.append(KernelCost("reduce", flops=reduce_flops, bytes=reduce_bytes, launches=max(launches // 2, 1)))
        kernels.append(KernelCost("solve", flops=1.2e4 * max(stats.icp_iterations, 1), bytes=4096.0, launches=1))

    if stats.integrated:
        n_voxels = float(resolution) ** 3
        kernels.append(KernelCost("integrate", flops=14.0 * n_voxels, bytes=8.0 * n_voxels))
        # Raycasting the updated model for the next tracking step: rays march
        # roughly half the volume edge in voxel-sized steps.
        steps = n_pixels * resolution * 0.5
        kernels.append(KernelCost("raycast", flops=12.0 * steps, bytes=4.0 * steps))

    return kernels


def elasticfusion_frame_kernels(stats: FrameStats, config: Mapping[str, object]) -> List[KernelCost]:
    """Kernel work of one ElasticFusion frame under ``config``."""
    n_pixels = NOMINAL_PIXELS
    # Fraction of pixels surviving the depth cut-off (recorded by the pipeline
    # at simulation scale and already expressed at nominal scale).
    valid_pixels = max(float(stats.n_tracking_points), 1.0)
    level_pixels = _pyramid_pixel_counts(int(valid_pixels))
    n_surfels = max(float(stats.n_surfels), 1.0)
    active_surfels = max(float(stats.raycast_steps), 1.0)  # active surfels splatted for the model view

    kernels: List[KernelCost] = [
        KernelCost("preprocess", flops=400.0 * n_pixels, bytes=60.0 * n_pixels, launches=6),
        KernelCost("pyramid", flops=10.0 * sum(level_pixels), bytes=8.0 * sum(level_pixels), launches=3),
    ]

    if stats.so3_used:
        so3_iters = float(stats.extra.get("so3_iterations", 3.0))
        coarse = level_pixels[-1]
        kernels.append(KernelCost("so3_prealign", flops=360.0 * coarse * max(so3_iters, 1.0), bytes=130.0 * coarse * max(so3_iters, 1.0), launches=int(max(so3_iters, 1.0)) * 2))

    if stats.tracked:
        icp_iters = max(stats.icp_iterations, 1)
        rgb_iters = max(stats.rgb_iterations, 0)
        mean_level_pix = float(np.mean(level_pixels))
        kernels.append(
            KernelCost(
                "icp_step",
                flops=560.0 * mean_level_pix * icp_iters,
                bytes=450.0 * mean_level_pix * icp_iters,
                launches=icp_iters * 4,
            )
        )
        if rgb_iters > 0:
            kernels.append(
                KernelCost(
                    "rgb_step",
                    flops=400.0 * mean_level_pix * rgb_iters,
                    bytes=190.0 * mean_level_pix * rgb_iters,
                    launches=rgb_iters * 4,
                )
            )
        kernels.append(KernelCost("solve", flops=1.5e4 * (icp_iters + rgb_iters), bytes=8192.0, launches=2))

    # Model prediction (index map + splat) over the active surfels, plus the
    # global-model maintenance (fusion, cleaning, deformation bookkeeping).
    kernels.append(
        KernelCost(
            "model_predict",
            flops=_EF_MODEL_SCALE * 12.0 * active_surfels + 8.0 * n_pixels,
            bytes=_EF_MODEL_SCALE * 24.0 * active_surfels + 8.0 * n_pixels,
            launches=3,
        )
    )
    if stats.integrated:
        fused = max(float(stats.integration_elements), 1.0)
        kernels.append(
            KernelCost(
                "surfel_fusion",
                flops=_EF_MODEL_SCALE * 18.0 * fused,
                bytes=_EF_MODEL_SCALE * 30.0 * fused,
                launches=4,
            )
        )
    if not bool(config.get("open_loop", False)):
        kernels.append(
            KernelCost(
                "local_loop_closure",
                flops=_EF_MODEL_SCALE * 6.0 * n_surfels,
                bytes=_EF_MODEL_SCALE * 10.0 * n_surfels,
                launches=5,
            )
        )
    if stats.relocalised:
        kernels.append(KernelCost("relocalisation", flops=80.0 * n_pixels, bytes=32.0 * n_pixels, launches=6))

    return kernels


def frame_runtime(
    stats: FrameStats,
    config: Mapping[str, object],
    device: DeviceModel,
    pipeline: str,
) -> float:
    """Estimated runtime (seconds) of one frame of ``pipeline`` on ``device``."""
    if pipeline == "kfusion":
        kernels = kfusion_frame_kernels(stats, config)
    elif pipeline == "elasticfusion":
        kernels = elasticfusion_frame_kernels(stats, config)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return device.frame_time_s(kernels)


def sequence_runtime(
    frames: Sequence[FrameStats],
    config: Mapping[str, object],
    device: DeviceModel,
    pipeline: str,
) -> Dict[str, float]:
    """Mean/total runtime statistics of a frame sequence on ``device``.

    Returns a dictionary with ``runtime_s`` (mean seconds per frame — the
    runtime objective of the paper), ``fps``, ``total_s`` and ``max_frame_s``.
    """
    if len(frames) == 0:
        raise ValueError("cannot compute runtime of an empty sequence")
    times = np.array([frame_runtime(f, config, device, pipeline) for f in frames])
    mean_t = float(times.mean())
    return {
        "runtime_s": mean_t,
        "fps": 1.0 / mean_t if mean_t > 0 else float("inf"),
        "total_s": float(times.sum()),
        "max_frame_s": float(times.max()),
    }


__all__ = [
    "NOMINAL_WIDTH",
    "NOMINAL_HEIGHT",
    "NOMINAL_PIXELS",
    "kfusion_frame_kernels",
    "elasticfusion_frame_kernels",
    "frame_runtime",
    "sequence_runtime",
]
