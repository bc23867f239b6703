"""Crash-residue detection and repair: the engine behind ``repro doctor``.

Every durable-I/O mechanism in this repo fails *recognizably*: atomic writes
strand ``*.tmp`` files, a killed history stream ends in a torn final JSONL
line, a dead worker leaves an expired (or orphaned) lease, and checksummed
envelopes expose bit rot.  The doctor walks a run or sweep directory, finds
exactly that residue, and — unless ``repair=False`` (``--dry-run``) —
removes or truncates it so the tree is indistinguishable from one that never
crashed.

What it will **not** touch:

* live leases on unfinished points (a worker is heartbeating them);
* run directories whose point is currently leased by a live worker;
* artifacts that are corrupt in ways no crash of our writers can produce
  (mid-file JSONL corruption, unparseable ``run.json``) — those are
  *reported* as unrepairable so a human decides.

Run it only when you believe no writer is live in the tree (live *leases*
are detected and respected; an unleased writer is invisible).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.durable import (
    CorruptArtifactError,
    CorruptJsonlError,
    repair_jsonl,
    read_checksummed_json,
    scan_jsonl,
)
from repro.core.leases import LEASE_SUFFIX, Lease
from repro.core.study import (
    HISTORY_FILE,
    PARETO_FILE,
    REPORT_FILE,
    RUN_FILE,
    SCENARIO_FILE,
    run_residue,
)
from repro.core.sweep import (
    LEASES_DIR,
    SWEEP_FILE,
    TERMINAL_STATUSES,
    load_manifest,
    sweep_lock,
)


@dataclass
class DoctorFinding:
    """One piece of crash residue (or damage) the doctor identified.

    ``kind`` is one of ``tmp-residue``, ``torn-history``,
    ``orphaned-lease``, ``expired-lease``, ``corrupt-lease``,
    ``corrupt-artifact``.  ``repaired`` is ``True`` when this pass fixed it;
    ``repairable`` is ``False`` for damage the doctor refuses to touch.
    """

    kind: str
    path: str
    detail: str
    repaired: bool = False
    repairable: bool = True

    def describe(self) -> str:
        tag = "repaired" if self.repaired else ("found" if self.repairable else "unrepairable")
        return f"[{tag}] {self.kind}: {self.path} — {self.detail}"


@dataclass
class DoctorReport:
    """Everything one doctor pass found (and possibly fixed)."""

    root: Path
    findings: List[DoctorFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """The tree had no residue at all."""
        return not self.findings

    @property
    def healthy(self) -> bool:
        """The tree is usable: it was clean, or everything found was repaired."""
        return all(f.repaired for f in self.findings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "clean": self.clean,
            "healthy": self.healthy,
            "findings": [
                {
                    "kind": f.kind,
                    "path": f.path,
                    "detail": f.detail,
                    "repaired": f.repaired,
                    "repairable": f.repairable,
                }
                for f in self.findings
            ],
        }

    def describe(self) -> str:
        if self.clean:
            return f"{self.root}: clean"
        lines = [f.describe() for f in self.findings]
        lines.append(
            f"{self.root}: {len(self.findings)} finding(s), "
            f"{sum(1 for f in self.findings if f.repaired)} repaired"
        )
        return "\n".join(lines)


def _rel(root: Path, path: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def doctor_run_dir(
    run_dir: Union[str, Path], *, repair: bool = True, root: Optional[Path] = None
) -> List[DoctorFinding]:
    """Findings (and repairs) for one study run directory."""
    run_path = Path(run_dir)
    root = run_path if root is None else root
    findings: List[DoctorFinding] = []

    for residue in run_residue(run_path):
        if repair:
            residue.unlink(missing_ok=True)
        findings.append(
            DoctorFinding(
                "tmp-residue", _rel(root, residue), "stranded atomic-write temporary", repaired=repair
            )
        )

    history = run_path / HISTORY_FILE
    if history.exists():
        try:
            scan = scan_jsonl(history)
        except CorruptJsonlError as exc:
            findings.append(
                DoctorFinding(
                    "corrupt-artifact",
                    _rel(root, history),
                    f"mid-file corruption (not crash residue): {exc}",
                    repairable=False,
                )
            )
        else:
            if scan.is_torn:
                if repair:
                    repair_jsonl(history)
                tail = scan.torn_tail or ""
                findings.append(
                    DoctorFinding(
                        "torn-history",
                        _rel(root, history),
                        f"torn final line ({len(tail)} bytes) after "
                        f"{len(scan.records)} complete record(s)"
                        + ("; truncated" if repair else ""),
                        repaired=repair,
                    )
                )

    for name in (SCENARIO_FILE, RUN_FILE, PARETO_FILE, REPORT_FILE):
        path = run_path / name
        if not path.exists():
            continue
        try:
            json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            findings.append(
                DoctorFinding(
                    "corrupt-artifact",
                    _rel(root, path),
                    f"unparseable JSON: {exc}",
                    repairable=False,
                )
            )
    return findings


def doctor_sweep_dir(sweep_dir: Union[str, Path], *, repair: bool = True) -> List[DoctorFinding]:
    """Findings (and repairs) for a sweep directory and its point run dirs."""
    sweep_path = Path(sweep_dir)
    findings: List[DoctorFinding] = []
    try:
        manifest = load_manifest(sweep_path)
    except (OSError, ValueError) as exc:
        return [
            DoctorFinding(
                "corrupt-artifact",
                SWEEP_FILE,
                f"unreadable manifest: {exc}",
                repairable=False,
            )
        ]
    entries = {e["point_id"]: e for e in manifest["points"]}
    live_points: set = set()
    now = time.time()

    # Lease hygiene runs under the sweep lock so a repair can never race a
    # live worker's claim/settle cycle.
    with sweep_lock(sweep_path):
        lease_dir = sweep_path / LEASES_DIR
        for lease_path in sorted(lease_dir.glob(f"*{LEASE_SUFFIX}")) if lease_dir.is_dir() else []:
            pid = lease_path.name[: -len(LEASE_SUFFIX)]
            rel = _rel(sweep_path, lease_path)
            try:
                lease = Lease.from_payload(read_checksummed_json(lease_path))
            except (CorruptArtifactError, KeyError, TypeError, ValueError) as exc:
                if repair:
                    lease_path.unlink(missing_ok=True)
                findings.append(
                    DoctorFinding("corrupt-lease", rel, f"failed integrity check: {exc}", repaired=repair)
                )
                continue
            entry = entries.get(pid)
            if entry is None or entry["status"] in TERMINAL_STATUSES:
                if repair:
                    lease_path.unlink(missing_ok=True)
                findings.append(
                    DoctorFinding(
                        "orphaned-lease",
                        rel,
                        "its point is terminal (or unknown) in the manifest",
                        repaired=repair,
                    )
                )
            elif lease.expired(now):
                if repair:
                    lease_path.unlink(missing_ok=True)
                findings.append(
                    DoctorFinding(
                        "expired-lease",
                        rel,
                        f"heartbeat by {lease.owner!r} is {now - lease.heartbeat_at:.1f}s old "
                        f"(ttl {lease.ttl_s:.1f}s); the owner is presumed dead",
                        repaired=repair,
                    )
                )
            else:
                live_points.add(pid)
        tmp_dirs = [sweep_path] + ([lease_dir] if lease_dir.is_dir() else [])
        for directory in tmp_dirs:
            for tmp in sorted(directory.glob("*.tmp")):
                if repair:
                    tmp.unlink(missing_ok=True)
                findings.append(
                    DoctorFinding(
                        "tmp-residue",
                        _rel(sweep_path, tmp),
                        "stranded atomic-write temporary",
                        repaired=repair,
                    )
                )

    for pid, entry in entries.items():
        if pid in live_points:
            # A live worker owns this run dir right now; its stream files are
            # not residue. Leave the whole dir alone.
            continue
        run_dir = sweep_path / entry["run_dir"]
        if run_dir.is_dir():
            findings.extend(doctor_run_dir(run_dir, repair=repair, root=sweep_path))
    return findings


def doctor(path: Union[str, Path], *, repair: bool = True) -> DoctorReport:
    """Diagnose (and with ``repair``, fix) crash residue under ``path``.

    ``path`` may be a sweep directory (has ``sweep.json``) or a single run
    directory.  Raises :class:`FileNotFoundError` for anything else.
    """
    root = Path(path)
    if (root / SWEEP_FILE).exists():
        findings = doctor_sweep_dir(root, repair=repair)
    elif any((root / name).exists() for name in (SCENARIO_FILE, RUN_FILE, HISTORY_FILE)):
        findings = doctor_run_dir(root, repair=repair)
    else:
        raise FileNotFoundError(
            f"{root} is neither a sweep directory (no {SWEEP_FILE}) nor a run "
            f"directory (no {SCENARIO_FILE}/{RUN_FILE}/{HISTORY_FILE})"
        )
    return DoctorReport(root=root, findings=findings)


__all__ = [
    "DoctorFinding",
    "DoctorReport",
    "doctor",
    "doctor_run_dir",
    "doctor_sweep_dir",
]
