"""Roofline-style device cost model.

A :class:`DeviceModel` converts per-kernel work descriptors (FLOPs and bytes
moved) into estimated execution time.  The model is deliberately simple —
effective arithmetic throughput, effective memory bandwidth, a per-kernel
launch overhead and a host-side per-frame overhead — because what matters for
the reproduction is the *relative* cost of different algorithmic
configurations, which is dominated by how much work each kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass(frozen=True)
class KernelCost:
    """Work performed by one kernel launch."""

    name: str
    flops: float
    bytes: float
    launches: int = 1

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes < 0 or self.launches < 0:
            raise ValueError("kernel work quantities must be non-negative")


@dataclass(frozen=True)
class DeviceModel:
    """An accelerator (GPU/iGPU) plus host platform.

    Attributes
    ----------
    name:
        Human-readable platform name.
    gflops:
        Effective (sustained) arithmetic throughput of the accelerator in
        GFLOP/s.  This is deliberately below the peak datasheet number.
    bandwidth_gbs:
        Effective memory bandwidth in GB/s (shared LPDDR for the mobile SoCs).
    kernel_overhead_us:
        Per-kernel-launch overhead in microseconds (OpenCL dispatch on the
        mobile runtimes is far more expensive than CUDA on the desktop GPU).
    frame_overhead_ms:
        Fixed per-frame host-side overhead (acquisition, driver, API).
    category:
        ``"embedded"``, ``"tablet"``, ``"desktop"`` or ``"mobile"`` — used by
        reports and the crowd-sourcing fleet.
    """

    name: str
    gflops: float
    bandwidth_gbs: float
    kernel_overhead_us: float = 50.0
    frame_overhead_ms: float = 1.0
    category: str = "embedded"

    def __post_init__(self) -> None:
        if self.gflops <= 0 or self.bandwidth_gbs <= 0:
            raise ValueError("gflops and bandwidth_gbs must be positive")
        if self.kernel_overhead_us < 0 or self.frame_overhead_ms < 0:
            raise ValueError("overheads must be non-negative")

    # -- cost estimation ------------------------------------------------------
    def kernel_time_s(self, kernel: KernelCost) -> float:
        """Estimated execution time of one kernel launch batch (seconds)."""
        compute_s = kernel.flops / (self.gflops * 1e9)
        memory_s = kernel.bytes / (self.bandwidth_gbs * 1e9)
        overhead_s = kernel.launches * self.kernel_overhead_us * 1e-6
        return max(compute_s, memory_s) + overhead_s

    def frame_time_s(self, kernels: Iterable[KernelCost]) -> float:
        """Estimated per-frame time for a collection of kernels (seconds)."""
        total = self.frame_overhead_ms * 1e-3
        for k in kernels:
            total += self.kernel_time_s(k)
        return total

    # -- convenience -------------------------------------------------------------
    def fps(self, frame_time_s: float) -> float:
        """Frames per second corresponding to a frame time."""
        if frame_time_s <= 0:
            raise ValueError("frame time must be positive")
        return 1.0 / frame_time_s

    def scaled(self, name: str, compute_scale: float = 1.0, bandwidth_scale: float = 1.0, overhead_scale: float = 1.0, category: str = "mobile") -> "DeviceModel":
        """A derived device with scaled characteristics (used for the fleet)."""
        return DeviceModel(
            name=name,
            gflops=self.gflops * compute_scale,
            bandwidth_gbs=self.bandwidth_gbs * bandwidth_scale,
            kernel_overhead_us=self.kernel_overhead_us * overhead_scale,
            frame_overhead_ms=self.frame_overhead_ms * overhead_scale,
            category=category,
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict representation."""
        return {
            "name": self.name,
            "gflops": self.gflops,
            "bandwidth_gbs": self.bandwidth_gbs,
            "kernel_overhead_us": self.kernel_overhead_us,
            "frame_overhead_ms": self.frame_overhead_ms,
            "category": self.category,
        }


__all__ = ["KernelCost", "DeviceModel"]
