"""In-memory results database for the crowd-sourcing experiment.

Stands in for the centralized server the SLAMBench Android app uploads its
results to.  Records are keyed by device name and configuration label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(frozen=True)
class CrowdRecord:
    """One uploaded benchmark result."""

    device_name: str
    device_category: str
    config_label: str
    runtime_s: float
    fps: float
    n_frames: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON export."""
        return {
            "device_name": self.device_name,
            "device_category": self.device_category,
            "config_label": self.config_label,
            "runtime_s": self.runtime_s,
            "fps": self.fps,
            "n_frames": self.n_frames,
        }


class CrowdDatabase:
    """Collects :class:`CrowdRecord` uploads and answers simple queries."""

    def __init__(self) -> None:
        self._records: List[CrowdRecord] = []

    def upload(self, record: CrowdRecord) -> None:
        """Store one result upload."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CrowdRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[CrowdRecord]:
        """All uploads in arrival order."""
        return list(self._records)

    def devices(self) -> List[str]:
        """Distinct device names that uploaded at least one result."""
        seen: Dict[str, None] = {}
        for r in self._records:
            seen.setdefault(r.device_name, None)
        return list(seen)

    def runtime(self, device_name: str, config_label: str) -> Optional[float]:
        """Runtime of a (device, config) pair, or ``None`` if never uploaded."""
        for r in self._records:
            if r.device_name == device_name and r.config_label == config_label:
                return r.runtime_s
        return None

    def speedups(self, baseline_label: str = "default", tuned_label: str = "pareto-best") -> Dict[str, float]:
        """Per-device speedup of ``tuned_label`` over ``baseline_label``."""
        out: Dict[str, float] = {}
        for device in self.devices():
            base = self.runtime(device, baseline_label)
            tuned = self.runtime(device, tuned_label)
            if base is None or tuned is None or tuned <= 0:
                continue
            out[device] = base / tuned
        return out


__all__ = ["CrowdRecord", "CrowdDatabase"]
