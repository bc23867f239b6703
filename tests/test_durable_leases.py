"""Tests for the crash-safe I/O layer and durable lease store.

Acceptance criteria covered:

* ``atomic_write_json``/``atomic_write_text`` leave either the old bytes or
  the new bytes, never a mix, and never strand temporaries on success,
* checksummed envelopes round-trip and expose tampering as
  ``ChecksumMismatchError``,
* the torn-tail-tolerant JSONL reader distinguishes a crash-torn final line
  (tolerated, repairable) from mid-file corruption (refused),
* ``FileLock`` mutually excludes across threads,
* ``LeaseStore``: fresh claims take generation 1, live leases block
  takeover, expired leases are taken over with a bumped generation, and a
  fenced (taken-over) holder can neither heartbeat nor release.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.durable import (
    TMP_SUFFIX,
    ChecksumMismatchError,
    CorruptArtifactError,
    CorruptJsonlError,
    FileLock,
    atomic_write_json,
    atomic_write_text,
    make_envelope,
    open_envelope,
    read_checksummed_json,
    read_jsonl,
    repair_jsonl,
    scan_jsonl,
    write_checksummed_json,
)
from repro.core.leases import DEFAULT_TTL_S, Lease, LeaseStore, StaleLeaseError


class TestAtomicWrites:
    def test_json_round_trip_and_no_tmp_residue(self, tmp_path):
        target = tmp_path / "meta.json"
        atomic_write_json(target, {"b": 2, "a": [1, None, "x"]})
        assert json.loads(target.read_text()) == {"b": 2, "a": [1, None, "x"]}
        assert list(tmp_path.glob(f"*{TMP_SUFFIX}")) == []

    def test_json_bytes_match_plain_dumps(self, tmp_path):
        """The atomic path must not perturb artifact bytes: the golden-file
        contracts pin run.json/sweep.json exactly."""
        target = tmp_path / "meta.json"
        payload = {"zeta": 1, "alpha": {"nested": [3, 2]}}
        atomic_write_json(target, payload)
        assert target.read_text() == json.dumps(payload, indent=2, sort_keys=True)

    def test_replace_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "meta.json"
        atomic_write_json(target, {"v": 1})
        atomic_write_json(target, {"v": 2})
        assert json.loads(target.read_text()) == {"v": 2}

    def test_text_write_creates_parent_file_only(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["note.txt"]


class TestChecksummedEnvelopes:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lease.json"
        write_checksummed_json(path, {"owner": "w1", "generation": 3})
        assert read_checksummed_json(path) == {"owner": "w1", "generation": 3}

    def test_tamper_is_detected(self, tmp_path):
        path = tmp_path / "lease.json"
        write_checksummed_json(path, {"owner": "w1", "generation": 3})
        env = json.loads(path.read_text())
        env["payload"]["generation"] = 99
        path.write_text(json.dumps(env))
        with pytest.raises(ChecksumMismatchError):
            read_checksummed_json(path)

    def test_envelope_shape_is_enforced(self):
        env = make_envelope([1, 2])
        assert open_envelope(env) == [1, 2]
        with pytest.raises(CorruptArtifactError):
            open_envelope({"payload": [1, 2]})
        with pytest.raises(CorruptArtifactError):
            open_envelope(dict(env, extra=True))


class TestJsonlScan:
    def write(self, tmp_path, text):
        path = tmp_path / "history.jsonl"
        path.write_bytes(text.encode())
        return path

    def test_clean_file(self, tmp_path):
        path = self.write(tmp_path, '{"i": 0}\n{"i": 1}\n')
        scan = scan_jsonl(path)
        assert scan.records == [{"i": 0}, {"i": 1}]
        assert not scan.is_torn
        assert scan.clean_bytes == path.stat().st_size

    def test_torn_tail_is_tolerated_and_repairable(self, tmp_path):
        path = self.write(tmp_path, '{"i": 0}\n{"i": 1}\n{"i": 2, "par')
        scan = scan_jsonl(path)
        assert scan.records == [{"i": 0}, {"i": 1}]
        assert scan.is_torn and scan.torn_tail.startswith('{"i": 2')
        assert read_jsonl(path) == [{"i": 0}, {"i": 1}]
        with pytest.raises(CorruptJsonlError):
            read_jsonl(path, tolerate_torn_tail=False)
        removed = repair_jsonl(path)
        assert removed.startswith('{"i": 2')
        assert path.read_text() == '{"i": 0}\n{"i": 1}\n'
        assert repair_jsonl(path) is None  # idempotent

    def test_unterminated_but_parseable_tail_is_still_torn(self, tmp_path):
        # A crash can land exactly after the closing brace but before the
        # newline; the record is not durable and must not be trusted.
        path = self.write(tmp_path, '{"i": 0}\n{"i": 1}')
        scan = scan_jsonl(path)
        assert scan.records == [{"i": 0}]
        assert scan.is_torn

    def test_mid_file_corruption_is_refused(self, tmp_path):
        path = self.write(tmp_path, '{"i": 0}\nnot json at all\n{"i": 2}\n')
        with pytest.raises(CorruptJsonlError):
            scan_jsonl(path)
        with pytest.raises(CorruptJsonlError):
            read_jsonl(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path, '{"i": 0}\n\n{"i": 1}\n')
        assert read_jsonl(path) == [{"i": 0}, {"i": 1}]


class TestFileLock:
    def test_mutual_exclusion_across_threads(self, tmp_path):
        lock_path = tmp_path / ".lock"
        counter = {"value": 0, "max_inside": 0}
        inside = threading.Semaphore(0)

        def bump():
            with FileLock(lock_path):
                counter["value"] += 1
                counter["max_inside"] = max(counter["max_inside"], counter["value"])
                time.sleep(0.01)
                counter["value"] -= 1
                inside.release()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["max_inside"] == 1
        assert all(inside.acquire(timeout=1) for _ in range(4))


class TestLeaseStore:
    def make_store(self, tmp_path, owner, now):
        clock = lambda: now["t"]  # noqa: E731 - tiny injectable clock
        return LeaseStore(tmp_path / "leases", owner=owner, ttl_s=10.0, clock=clock)

    def test_fresh_claim_takes_generation_one(self, tmp_path):
        now = {"t": 100.0}
        store = self.make_store(tmp_path, "w1", now)
        lease = store.try_acquire("p0")
        assert isinstance(lease, Lease)
        assert (lease.owner, lease.generation) == ("w1", 1)
        assert store.path_for("p0").exists()
        assert store.list_point_ids() == ["p0"]

    def test_live_lease_blocks_other_owners(self, tmp_path):
        now = {"t": 100.0}
        store1 = self.make_store(tmp_path, "w1", now)
        store2 = self.make_store(tmp_path, "w2", now)
        assert store1.try_acquire("p0") is not None
        now["t"] += 5.0  # inside ttl
        assert store2.try_acquire("p0") is None
        assert not store2.is_claimable("p0")

    def test_expired_lease_is_taken_over_with_bumped_generation(self, tmp_path):
        now = {"t": 100.0}
        store1 = self.make_store(tmp_path, "w1", now)
        store2 = self.make_store(tmp_path, "w2", now)
        old = store1.try_acquire("p0")
        now["t"] += 11.0  # past ttl, w1 presumed dead
        taken = store2.try_acquire("p0")
        assert (taken.owner, taken.generation) == ("w2", 2)
        # The fenced original can neither heartbeat nor release.
        with pytest.raises(StaleLeaseError):
            store1.heartbeat(old)
        with pytest.raises(StaleLeaseError):
            store1.release(old)
        assert store2.peek("p0").owner == "w2"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        now = {"t": 100.0}
        store1 = self.make_store(tmp_path, "w1", now)
        store2 = self.make_store(tmp_path, "w2", now)
        lease = store1.try_acquire("p0")
        for _ in range(4):
            now["t"] += 6.0  # each step < ttl since last heartbeat
            lease = store1.heartbeat(lease)
        # 24s elapsed > ttl, yet the lease is live because it was refreshed.
        assert store2.try_acquire("p0") is None

    def test_release_then_reclaim_respects_generation_floor(self, tmp_path):
        now = {"t": 100.0}
        store = self.make_store(tmp_path, "w1", now)
        lease = store.try_acquire("p0")
        store.release(lease)
        assert not store.path_for("p0").exists()
        # The manifest remembers generation 1; a fresh claim must fence above it.
        again = store.try_acquire("p0", generation_floor=lease.generation)
        assert again.generation == 2

    def test_expiry_uses_heartbeat_age(self, tmp_path):
        now = {"t": 0.0}
        store = self.make_store(tmp_path, "w1", now)
        lease = store.try_acquire("p0")
        assert not lease.expired(9.9)
        assert lease.expired(10.1)

    def test_default_ttl_is_sane(self):
        assert DEFAULT_TTL_S > 0

    def test_takeover_removes_the_dead_owners_temporaries(self, tmp_path):
        now = {"t": 100.0}
        store1 = self.make_store(tmp_path, "w1", now)
        store2 = self.make_store(tmp_path, "w2", now)
        store1.try_acquire("p0")
        store1.try_acquire("p1")
        now["t"] += 11.0  # both expired: w1 died inside a heartbeat write
        lease_dir = tmp_path / "leases"
        stranded = lease_dir / f".p0.lease.json.4242-3{TMP_SUFFIX}"
        other = lease_dir / f".p1.lease.json.4242-4{TMP_SUFFIX}"
        stranded.write_text("{")
        other.write_text("{")
        p1_bytes = store1.path_for("p1").read_bytes()
        taken = store2.try_acquire("p0")
        assert (taken.owner, taken.generation) == ("w2", 2)
        assert not stranded.exists()
        assert other.read_text() == "{"
        assert store1.path_for("p1").read_bytes() == p1_bytes

    def test_takeover_leaves_a_clean_sweep_dir(self, tmp_path):
        from repro.core.doctor import doctor
        from repro.core.sweep import LEASES_DIR, SweepSpec, load_manifest, prepare_sweep_dir
        from test_distributed_sweep import toy_sweep

        sweep_dir = tmp_path / "sw"
        prepare_sweep_dir(SweepSpec.from_dict(toy_sweep()), sweep_dir)
        pid = load_manifest(sweep_dir)["points"][0]["point_id"]
        lease_dir = sweep_dir / LEASES_DIR
        lease_dir.mkdir(exist_ok=True)
        dead = Lease(
            point_id=pid, owner="dead", generation=1, acquired_at=0.0, heartbeat_at=0.0, ttl_s=1.0
        )
        write_checksummed_json(lease_dir / f"{pid}.lease.json", dead.to_payload())
        (lease_dir / f".{pid}.lease.json.4242-3{TMP_SUFFIX}").write_text("{")
        before = doctor(sweep_dir, repair=False)
        assert sorted(f.kind for f in before.findings) == ["expired-lease", "tmp-residue"]
        taken = LeaseStore(lease_dir, owner="w2", ttl_s=30.0).try_acquire(pid)
        assert taken.generation == 2
        assert doctor(sweep_dir, repair=False).clean


class TestDeadOwnerTakeover:
    """A same-host lease whose owner process has exited is taken at once."""

    @staticmethod
    def owner_of(pid, host=None):
        return f"{host or socket.gethostname()}:{pid}:0123abcd"

    def stores(self, tmp_path, dead_owner):
        now = {"t": 100.0}
        clock = lambda: now["t"]  # noqa: E731 - frozen: the ttl never runs out
        held = LeaseStore(tmp_path / "leases", owner=dead_owner, ttl_s=30.0, clock=clock)
        taker = LeaseStore(tmp_path / "leases", ttl_s=30.0, clock=clock)
        return held, taker

    def test_finished_childs_lease_is_taken_at_once(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )
        held, taker = self.stores(tmp_path, self.owner_of(int(child.stdout)))
        first = held.try_acquire("p0")
        assert taker.is_claimable("p0")
        taken = taker.try_acquire("p0")
        assert (taken.owner, taken.generation) == (taker.owner, first.generation + 1)
        with pytest.raises(StaleLeaseError):
            held.heartbeat(first)

    def test_sleeping_childs_lease_waits_for_the_ttl(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            held, taker = self.stores(tmp_path, self.owner_of(child.pid))
            held.try_acquire("p0")
            assert not taker.is_claimable("p0")
            assert taker.try_acquire("p0") is None
        finally:
            child.kill()
            child.wait()

    @pytest.mark.parametrize(
        "owner",
        [
            "elsewhere.invalid:{pid}:0123abcd",  # another host
            "worker-7",  # set by --owner
            "{host}:{pid}",  # not the default form
        ],
    )
    def test_other_owners_wait_for_the_ttl(self, tmp_path, owner):
        pid = 2**22 + 12345  # above Linux's pid_max: no such process here
        held, taker = self.stores(tmp_path, owner.format(pid=pid, host=socket.gethostname()))
        held.try_acquire("p0")
        assert not taker.is_claimable("p0")
        assert taker.try_acquire("p0") is None

    def test_a_pid_we_may_not_signal_waits_for_the_ttl(self, tmp_path, monkeypatch):
        def refuse(pid, sig):
            raise PermissionError(1, "Operation not permitted")

        held, taker = self.stores(tmp_path, self.owner_of(os.getpid() + 1))
        held.try_acquire("p0")
        monkeypatch.setattr(os, "kill", refuse)
        assert taker.try_acquire("p0") is None
