"""Crash-safe artifact I/O: every write survives SIGKILL at any instruction.

The artifact layers above this module (run dirs, sweep manifests, lease
files) all share three durability needs, implemented once here:

* **atomic replace** — :func:`atomic_write_text` / :func:`atomic_write_json`
  write to a uniquely named temporary file in the *same directory*, flush,
  ``fsync``, then ``os.replace`` onto the target and ``fsync`` the directory.
  A reader therefore sees either the old bytes or the new bytes, never a
  torn mix, and the rename is on disk before the call returns.  Crash
  residue is a stray ``*.tmp`` file, which ``repro doctor`` removes.
* **checksummed envelopes** — :func:`write_checksummed_json` wraps a payload
  as ``{"checksum": "sha256:...", "payload": ...}`` over the payload's
  canonical JSON form, so a reader (:func:`read_checksummed_json`) can
  distinguish "file from a crashed/buggy writer" from "file I can trust"
  even on filesystems whose rename guarantees are weaker than POSIX.
* **torn-tail-tolerant JSONL** — an append-streamed ``history.jsonl`` killed
  mid-write ends in a partial line.  :func:`scan_jsonl` parses every
  newline-terminated record, reports (instead of raising on) a torn final
  line, and still raises on *mid-file* corruption, which no crash can
  produce; :func:`repair_jsonl` truncates the file back to the last
  complete record.

:class:`FileLock` is the advisory ``flock`` wrapper the sweep layer uses to
serialize manifest read-modify-write cycles and lease takeovers between
worker processes on one host (or hosts sharing a filesystem whose ``flock``
is coherent; see ``docs/distributed.md`` for the multi-host caveats).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Union

try:  # POSIX only; the lock degrades to a no-op where flock is unavailable.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.utils.serialization import to_jsonable

#: Suffix shared by every temporary file this module creates, so crash
#: residue is recognizable (``repro doctor`` globs for it).
TMP_SUFFIX = ".tmp"

_tmp_counter = 0
_tmp_counter_lock = threading.Lock()


class CorruptArtifactError(ValueError):
    """A persisted artifact failed an integrity check (checksum, mid-file JSONL)."""


class ChecksumMismatchError(CorruptArtifactError):
    """A checksummed envelope's payload does not hash to its recorded checksum."""


class CorruptJsonlError(CorruptArtifactError):
    """A JSONL file is corrupt *before* its final line — not crash residue."""


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush a directory entry to disk (best effort: some filesystems refuse)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on a directory refused
        pass
    finally:
        os.close(fd)


def _unique_tmp_path(path: Path) -> Path:
    # Unique per (process, call) so concurrent writers of one target never
    # share a temporary file; hidden so directory listings stay readable.
    global _tmp_counter
    with _tmp_counter_lock:
        _tmp_counter += 1
        n = _tmp_counter
    return path.parent / f".{path.name}.{os.getpid()}-{n}{TMP_SUFFIX}"


def tmp_residue(path: Union[str, Path]) -> List[Path]:
    """Temporaries of atomic writes to ``path`` that are still on disk.

    Only a writer killed between creating its temporary and the rename
    leaves one, so with every writer of ``path`` excluded (e.g. under the
    lock all of them write under) they are all crash residue.
    """
    path = Path(path)
    prefix = f".{path.name}."
    return sorted(
        tmp
        for tmp in path.parent.glob(f"{prefix}*{TMP_SUFFIX}")
        if re.fullmatch(r"\d+-\d+", tmp.name[len(prefix) : -len(TMP_SUFFIX)])
    )


def atomic_write_text(path: Union[str, Path], text: str, *, fsync: bool = True) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + replace + dir fsync).

    A reader concurrently opening ``path`` sees either the previous content
    or exactly ``text`` — never a prefix.  With ``fsync`` (the default) the
    bytes and the rename are on disk when the call returns, so the write
    also survives power loss, not just process death.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _unique_tmp_path(path)
    try:
        with tmp.open("w") as fh:
            fh.write(text)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if fsync:
        fsync_dir(path.parent)
    return path


def atomic_write_json(
    path: Union[str, Path],
    payload: Any,
    *,
    indent: Optional[int] = 2,
    sort_keys: bool = True,
    trailing_newline: bool = False,
    fsync: bool = True,
) -> Path:
    """Serialize ``payload`` as JSON and write it atomically.

    The byte format matches the repo's historical direct writes
    (``json.dumps(..., indent=2, sort_keys=True)``; manifests add a trailing
    newline) so routing an existing artifact through this function changes
    its durability, never its content.
    """
    text = json.dumps(to_jsonable(payload), indent=indent, sort_keys=True if sort_keys else False)
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text, fsync=fsync)


# ---------------------------------------------------------------------------
# Checksummed envelopes
# ---------------------------------------------------------------------------


def payload_checksum(payload: Any) -> str:
    """``sha256:<hex>`` over the payload's canonical (compact, sorted) JSON."""
    canonical = json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_envelope(payload: Any) -> dict:
    """Wrap ``payload`` with its checksum: ``{"checksum": ..., "payload": ...}``."""
    return {"checksum": payload_checksum(payload), "payload": to_jsonable(payload)}


def open_envelope(data: Any) -> Any:
    """Verify and unwrap an envelope produced by :func:`make_envelope`."""
    if not isinstance(data, dict) or set(data) != {"checksum", "payload"}:
        raise ChecksumMismatchError(f"not a checksummed envelope: keys {sorted(data) if isinstance(data, dict) else type(data).__name__}")
    expected = data["checksum"]
    actual = payload_checksum(data["payload"])
    if expected != actual:
        raise ChecksumMismatchError(f"checksum mismatch: recorded {expected}, computed {actual}")
    return data["payload"]


def write_checksummed_json(path: Union[str, Path], payload: Any, *, fsync: bool = True) -> Path:
    """Atomically write ``payload`` inside a checksummed envelope."""
    return atomic_write_json(path, make_envelope(payload), fsync=fsync)


def read_checksummed_json(path: Union[str, Path]) -> Any:
    """Read and verify an envelope file; raises :class:`ChecksumMismatchError`
    on tampering/corruption and :class:`CorruptArtifactError` on unparseable
    JSON (both subclasses of ``ValueError``)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(f"{path}: invalid JSON: {exc}") from None
    return open_envelope(data)


# ---------------------------------------------------------------------------
# Torn-tail-tolerant JSONL
# ---------------------------------------------------------------------------


@dataclass
class JsonlScan:
    """Result of :func:`scan_jsonl`.

    ``records`` holds every complete record; ``clean_bytes`` is the offset
    of the first byte after the last complete record (the truncation point a
    repair uses); ``torn_tail`` is the partial final line a crash left
    behind (``None`` for a clean file).
    """

    records: List[Any]
    clean_bytes: int
    torn_tail: Optional[str] = None

    @property
    def is_torn(self) -> bool:
        return self.torn_tail is not None


def scan_jsonl(path: Union[str, Path]) -> JsonlScan:
    """Parse a JSONL file, tolerating a torn final line.

    A record is *complete* when its line is newline-terminated and parses as
    JSON.  A final line that is unterminated or unparseable is reported as
    ``torn_tail`` — exactly the residue a SIGKILL mid-append produces.  An
    unparseable line *before* the end cannot come from a crash of the
    append-only writer and raises :class:`CorruptJsonlError`.
    """
    path = Path(path)
    data = path.read_bytes()
    records: List[Any] = []
    offset = 0
    n = len(data)
    while offset < n:
        newline = data.find(b"\n", offset)
        terminated = newline != -1
        end = newline if terminated else n
        line = data[offset:end]
        parsed = None
        ok = False
        if line.strip():
            try:
                parsed = json.loads(line)
                ok = True
            except json.JSONDecodeError:
                ok = False
        else:
            # Blank lines are skippable padding, but an unterminated blank
            # tail is still clean (nothing was lost).
            offset = end + 1 if terminated else n
            continue
        if ok and terminated:
            records.append(parsed)
            offset = end + 1
            continue
        # Incomplete record: only acceptable as the very last line.
        if terminated and end + 1 < n:
            raise CorruptJsonlError(
                f"{path}: unparseable record at byte {offset} is not the final "
                "line — this is corruption, not crash residue"
            )
        return JsonlScan(
            records=records,
            clean_bytes=offset,
            torn_tail=line.decode("utf-8", errors="replace"),
        )
    return JsonlScan(records=records, clean_bytes=n, torn_tail=None)


def read_jsonl(path: Union[str, Path], *, tolerate_torn_tail: bool = True) -> List[Any]:
    """Read a JSONL file into a list of records.

    With ``tolerate_torn_tail`` (the default for resume paths), a partial
    final line is silently dropped — the durable history always ends at an
    evaluation boundary modulo that last line.  Set it to ``False`` to raise
    :class:`CorruptJsonlError` instead.
    """
    scan = scan_jsonl(path)
    if scan.is_torn and not tolerate_torn_tail:
        raise CorruptJsonlError(f"{path}: torn final line: {scan.torn_tail!r:.80}")
    return scan.records


class JsonlLogger:
    """Append-only, crash-safe JSONL event log (the service's queue journal).

    Each :meth:`append` writes one compact, newline-terminated JSON line,
    flushes it, and (by default) ``fsync``\\ s — so a SIGKILL at any
    instruction leaves the file ending at an event boundary, except possibly
    a torn final line, which :func:`scan_jsonl` readers drop.  Appends are
    serialized by an internal mutex, making the logger safe to share across
    the service's dispatcher and runner threads.
    """

    def __init__(self, path: Union[str, Path], *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fh = None

    def append(self, record: Any) -> None:
        """Durably append one event record."""
        line = json.dumps(to_jsonable(record), sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a")
            self._fh.write(line + "\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlLogger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def repair_jsonl(path: Union[str, Path]) -> Optional[str]:
    """Truncate a JSONL file back to its last complete record.

    Returns the removed torn tail, or ``None`` when the file was already
    clean.  The truncation itself is fsync'd so the repair is durable.
    """
    path = Path(path)
    scan = scan_jsonl(path)
    if not scan.is_torn:
        return None
    fd = os.open(str(path), os.O_WRONLY)
    try:
        os.ftruncate(fd, scan.clean_bytes)
        os.fsync(fd)
    finally:
        os.close(fd)
    return scan.torn_tail


# ---------------------------------------------------------------------------
# Advisory file locking
# ---------------------------------------------------------------------------


class FileLock:
    """An exclusive advisory lock on a dedicated lock file (``flock``).

    Used as a context manager::

        lock = FileLock(sweep_dir / ".sweep.lock")
        with lock:
            ...  # manifest read-modify-write, lease takeover

    The lock is *not* reentrant; callers structure their critical sections
    so each is entered once.  A per-instance thread mutex additionally
    serializes threads of one process (``flock`` is per-open-file, so two
    threads sharing the instance would otherwise both "hold" it).  Where
    ``fcntl`` is unavailable the lock degrades to thread-level only.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._thread_lock = threading.Lock()
        self._fd: Optional[int] = None

    def __enter__(self) -> "FileLock":
        self._thread_lock.acquire()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(self.path), os.O_CREAT | os.O_RDWR, 0o644)
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:
                    os.close(fd)
                    raise
            self._fd = fd
        except BaseException:
            self._thread_lock.release()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        fd, self._fd = self._fd, None
        try:
            if fd is not None:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
        finally:
            self._thread_lock.release()


__all__ = [
    "TMP_SUFFIX",
    "CorruptArtifactError",
    "ChecksumMismatchError",
    "CorruptJsonlError",
    "fsync_dir",
    "atomic_write_text",
    "atomic_write_json",
    "tmp_residue",
    "payload_checksum",
    "make_envelope",
    "open_envelope",
    "write_checksummed_json",
    "read_checksummed_json",
    "JsonlScan",
    "scan_jsonl",
    "read_jsonl",
    "repair_jsonl",
    "JsonlLogger",
    "FileLock",
]
