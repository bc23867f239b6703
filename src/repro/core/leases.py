"""Durable, fenced point leases: many workers safely drain one sweep.

One sweep directory is drained by N independent worker processes (hosts on
a shared filesystem tomorrow) by **leasing** points.  A lease is a small
checksummed JSON file under ``<sweep_dir>/leases/`` claimed with
``O_CREAT | O_EXCL`` — the filesystem's own atomic "exactly one creator"
primitive — and carrying three things:

* an **owner id** (``host:pid:nonce``), for observability and heartbeats;
* a **generation** — a monotonically increasing fencing token.  Every
  (re-)acquisition of a point's lease bumps it, and every durable effect of
  holding the lease (the manifest settle) is validated against it: a writer
  whose lease was taken over presents a stale generation and is rejected
  (:class:`StaleLeaseError`), so a paused-then-resumed worker can never
  clobber its successor's result;
* a **heartbeat timestamp**.  A live owner refreshes it every
  ``ttl_s / 3``; a lease whose heartbeat is older than ``ttl_s`` is
  *expired* and may be taken over by any worker (generation + 1).  A lease
  whose default owner id names a process of this host that no longer
  exists is taken over at once, on the same generation rule: a resume on
  the machine where a worker was killed does not wait out the ttl.

The store itself is deliberately dumb about concurrency: the fresh-claim
fast path is atomic via ``O_EXCL``, and every mutating operation on an
*existing* lease (takeover, heartbeat, release) runs under the shared
:class:`~repro.core.durable.FileLock` so read-check-write cycles cannot
interleave.  Wall-clock time is injectable (``clock``) so tests control
expiry deterministically.
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.durable import (
    CorruptArtifactError,
    FileLock,
    make_envelope,
    read_checksummed_json,
    tmp_residue,
    write_checksummed_json,
)

#: Filename suffix of lease files inside the lease directory.
LEASE_SUFFIX = ".lease.json"

#: Default lease time-to-live: a heartbeat older than this marks the owner dead.
DEFAULT_TTL_S = 30.0


class LeaseError(RuntimeError):
    """Base class for lease protocol violations."""


class StaleLeaseError(LeaseError):
    """The caller's lease generation was fenced by a newer acquisition.

    Raised on heartbeat/release/settle attempts from an owner whose lease
    was taken over — the old writer must abandon its work; the new
    generation's result stands.
    """


def default_owner_id() -> str:
    """``host:pid:nonce`` — unique per worker process, stable within it."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


_DEFAULT_OWNER = re.compile(r"(?P<host>.+):(?P<pid>[1-9][0-9]*):[0-9a-f]{8}")


def _owner_is_gone(owner: str) -> bool:
    """Whether ``owner`` is a default owner id of a process that has exited.

    True only when the id has the :func:`default_owner_id` form, names this
    host and another process, and ``os.kill(pid, 0)`` raises
    :class:`ProcessLookupError`.  An owner set by hand, another host, a live
    pid or a pid this user may not signal (:class:`PermissionError`) all
    read as alive, and their leases wait for the ttl.
    """
    match = _DEFAULT_OWNER.fullmatch(owner)
    if match is None or match["host"] != socket.gethostname():
        return False
    pid = int(match["pid"])
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        return False
    return False


@dataclass(frozen=True)
class Lease:
    """An acquired (or observed) lease on one point."""

    point_id: str
    owner: str
    generation: int
    acquired_at: float
    heartbeat_at: float
    ttl_s: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "point_id": self.point_id,
            "owner": self.owner,
            "generation": int(self.generation),
            "acquired_at": float(self.acquired_at),
            "heartbeat_at": float(self.heartbeat_at),
            "ttl_s": float(self.ttl_s),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Lease":
        return cls(
            point_id=str(payload["point_id"]),
            owner=str(payload["owner"]),
            generation=int(payload["generation"]),
            acquired_at=float(payload["acquired_at"]),
            heartbeat_at=float(payload["heartbeat_at"]),
            ttl_s=float(payload["ttl_s"]),
        )

    def expired(self, now: float) -> bool:
        """Whether the heartbeat is older than the ttl at time ``now``."""
        return (now - self.heartbeat_at) > self.ttl_s


class LeaseStore:
    """Lease files for one sweep directory.

    Parameters
    ----------
    lease_dir:
        Directory holding the lease files (``<sweep_dir>/leases``).
    owner:
        This worker's owner id (defaults to :func:`default_owner_id`).
    ttl_s:
        Time-to-live stamped into leases this store acquires.
    clock:
        Wall-clock source (``time.time``); injectable for deterministic
        expiry in tests.
    lock:
        The shared :class:`FileLock` serializing mutations of existing
        leases.  Pass the sweep-wide lock so lease takeovers and manifest
        updates share one critical section; defaults to a lock file inside
        the lease directory.
    """

    def __init__(
        self,
        lease_dir: Union[str, Path],
        *,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.time,
        lock: Optional[FileLock] = None,
    ) -> None:
        if float(ttl_s) <= 0:
            raise ValueError("ttl_s must be positive")
        self.lease_dir = Path(lease_dir)
        self.owner = owner if owner is not None else default_owner_id()
        self.ttl_s = float(ttl_s)
        self.clock = clock
        self.lock = lock if lock is not None else FileLock(self.lease_dir / ".leases.lock")

    # -- paths -----------------------------------------------------------------
    def path_for(self, point_id: str) -> Path:
        return self.lease_dir / f"{point_id}{LEASE_SUFFIX}"

    def list_point_ids(self) -> List[str]:
        """Point ids of every lease file currently on disk (sorted)."""
        if not self.lease_dir.is_dir():
            return []
        return sorted(
            p.name[: -len(LEASE_SUFFIX)]
            for p in self.lease_dir.iterdir()
            if p.name.endswith(LEASE_SUFFIX)
        )

    # -- observation -----------------------------------------------------------
    def peek(self, point_id: str) -> Optional[Lease]:
        """The current lease on ``point_id``, or ``None``.

        Raises :class:`~repro.core.durable.CorruptArtifactError` when the
        file exists but fails its checksum — callers decide whether that
        means "treat as expired" (claiming) or "report" (doctor).
        """
        path = self.path_for(point_id)
        if not path.exists():
            return None
        return Lease.from_payload(read_checksummed_json(path))

    def is_claimable(self, point_id: str, *, now: Optional[float] = None) -> bool:
        """Whether a claim on ``point_id`` would succeed right now."""
        try:
            lease = self.peek(point_id)
        except CorruptArtifactError:
            return True  # corrupt lease = crash residue; a claim replaces it
        if lease is None:
            return True
        return self._takeable(lease, self.clock() if now is None else now)

    @staticmethod
    def _takeable(lease: Lease, now: float) -> bool:
        """Whether ``lease`` may be taken over: expired, or its owner is gone."""
        return lease.expired(now) or _owner_is_gone(lease.owner)

    # -- acquisition -------------------------------------------------------------
    def try_acquire(self, point_id: str, *, generation_floor: int = 0) -> Optional[Lease]:
        """Claim ``point_id``; returns the held lease or ``None`` if live.

        ``generation_floor`` is the highest generation the caller has seen
        recorded elsewhere (the sweep manifest): the new lease's generation
        is strictly greater than both it and any on-disk lease's, so fencing
        survives even a deleted lease file.

        Fresh claims (no lease file) go through ``O_CREAT | O_EXCL`` —
        atomic on its own.  Takeovers of an existing (expired or corrupt)
        lease run under :attr:`lock`.
        """
        path = self.path_for(point_id)
        if not path.exists():
            lease = self._new_lease(point_id, generation=int(generation_floor) + 1)
            if self._create_exclusive(path, lease):
                return lease
            # Lost the creation race: fall through to the locked path.
        with self.lock:
            return self._acquire_locked(point_id, generation_floor=generation_floor)

    def acquire_locked(self, point_id: str, *, generation_floor: int = 0) -> Optional[Lease]:
        """:meth:`try_acquire` for callers already holding :attr:`lock`."""
        path = self.path_for(point_id)
        if not path.exists():
            lease = self._new_lease(point_id, generation=int(generation_floor) + 1)
            if self._create_exclusive(path, lease):
                return lease
        return self._acquire_locked(point_id, generation_floor=generation_floor)

    def _acquire_locked(self, point_id: str, *, generation_floor: int) -> Optional[Lease]:
        path = self.path_for(point_id)
        on_disk_generation = 0
        if path.exists():
            try:
                current = Lease.from_payload(read_checksummed_json(path))
            except CorruptArtifactError:
                current = None  # corrupt residue: replace it
            if current is not None:
                if not self._takeable(current, self.clock()):
                    return None
                on_disk_generation = current.generation
        lease = self._new_lease(
            point_id, generation=max(on_disk_generation, int(generation_floor)) + 1
        )
        # Every write of this lease runs under the lock held here, so a
        # temporary beside it is a dead owner's torn write: remove it.
        for tmp in tmp_residue(path):
            tmp.unlink(missing_ok=True)
        write_checksummed_json(path, lease.to_payload())
        return lease

    def _new_lease(self, point_id: str, *, generation: int) -> Lease:
        now = self.clock()
        return Lease(
            point_id=point_id,
            owner=self.owner,
            generation=int(generation),
            acquired_at=now,
            heartbeat_at=now,
            ttl_s=self.ttl_s,
        )

    def _create_exclusive(self, path: Path, lease: Lease) -> bool:
        """Atomically create ``path`` holding ``lease``; False if it exists."""
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            data = json.dumps(make_envelope(lease.to_payload()), indent=2, sort_keys=True)
            os.write(fd, data.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    # -- keeping and yielding ----------------------------------------------------
    def heartbeat(self, lease: Lease) -> Lease:
        """Refresh the heartbeat; raises :class:`StaleLeaseError` if fenced."""
        with self.lock:
            current = self._verify_held(lease)
            refreshed = replace(current, heartbeat_at=self.clock())
            write_checksummed_json(self.path_for(lease.point_id), refreshed.to_payload())
            return refreshed

    def release(self, lease: Lease) -> None:
        """Remove the lease file; raises :class:`StaleLeaseError` if fenced.

        A fenced release leaves the successor's file untouched.
        """
        with self.lock:
            self._verify_held(lease)
            self.path_for(lease.point_id).unlink(missing_ok=True)

    def release_locked(self, lease: Lease) -> None:
        """:meth:`release` for callers already holding :attr:`lock`."""
        self._verify_held(lease)
        self.path_for(lease.point_id).unlink(missing_ok=True)

    def _verify_held(self, lease: Lease) -> Lease:
        try:
            current = self.peek(lease.point_id)
        except CorruptArtifactError as exc:
            raise StaleLeaseError(
                f"lease on {lease.point_id!r} is corrupt on disk ({exc}); "
                "treat the claim as lost"
            ) from None
        if current is None:
            raise StaleLeaseError(
                f"lease on {lease.point_id!r} no longer exists (released or repaired away)"
            )
        if current.generation != lease.generation or current.owner != lease.owner:
            raise StaleLeaseError(
                f"lease on {lease.point_id!r} was taken over: held generation "
                f"{lease.generation} by {lease.owner!r}, current generation "
                f"{current.generation} by {current.owner!r}"
            )
        return current


__all__ = [
    "LEASE_SUFFIX",
    "DEFAULT_TTL_S",
    "LeaseError",
    "StaleLeaseError",
    "default_owner_id",
    "Lease",
    "LeaseStore",
]
