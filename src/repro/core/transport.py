"""Socket transport for distributed evaluation (one queue, many hosts).

The paper's operating mode is a fleet of heterogeneous devices draining one
optimization loop's evaluation queue (the 83-device crowd of Fig. 5), each
device sent a configuration, never a program.  This module is the wire layer
that makes that topology real:

* **framing** — length-prefixed JSON frames over TCP (stdlib only: a 4-byte
  big-endian length followed by a UTF-8 JSON object).  JSON is the only
  encoding: nothing a peer sends is ever executed,
* **specs, not code** — a task is ``{id, spec: <sha256>, config}``.  A
  worker that does not hold the spec answers ``need_spec`` and gets the spec
  (:meth:`~repro.core.scenario.Scenario.evaluation_spec` plus the executor's
  fault policy) and the task again; it validates the spec as a scenario,
  builds its evaluator (:func:`~repro.core.study.build_evaluator`) and keeps
  it in a small LRU, so its dataset, frame memo and simulation cache serve
  every later task,
* **results** — ``{ok: true, metrics, attempts}`` or ``{ok: false, error:
  {kind, type, message}}``, validated by the broker before any future
  resolves,
* **versioned handshake** — workers open with a ``hello`` carrying
  :data:`PROTOCOL_VERSION`; the broker answers ``welcome`` (assigning a
  worker id and the heartbeat interval) or ``reject``,
* **heartbeats** — workers ping on a fixed interval, including *during* a
  long evaluation (the ping thread is independent of the evaluation); the
  broker declares a worker dead after ``3 × heartbeat_s`` of silence or on
  EOF/reset, whichever comes first,
* **an evaluation broker** — :class:`EvaluationBroker` owns one FIFO task
  queue and hands exactly one task at a time to each connected worker; it
  is the pool behind :class:`~repro.core.executor.EvaluationExecutor`'s
  ``backend="socket"``.

Failure semantics, precisely:

* a task that never reached a worker (send failed, worker died while idle)
  is **requeued silently** — no fault is charged to the configuration,
* a task that was dispatched when its worker died fails its future with
  :class:`WorkerDied`; the *executor* decides whether to resubmit
  (bounded) or quarantine, reusing the :mod:`repro.core.faults` taxonomy,
* a failure the worker reports fails the future with its fault type,
* a malformed result, a second ``need_spec`` for one task, and a spec the
  worker cannot build fail with :class:`TransportError` — never retried,
  resubmitted or quarantined,
* broker shutdown fails all queued-but-undispatched futures with
  :class:`BrokerShutdown`.

Determinism is owned one layer up: the executor gathers results in
submission order, so *which* worker returns a result — and in what order
results arrive — never touches the history.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import select
import socket
import struct
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.durable import atomic_write_json
from repro.core.faults import FAULT_KINDS, EvaluationFault, FaultPolicy, call_with_policy, fault_from_error
from repro.core.history import config_from_dict
from repro.core.scenario import Scenario
from repro.core.space import Configuration

PROTOCOL_VERSION = 2

#: 4-byte big-endian frame length prefix.
HEADER = struct.Struct(">I")

#: Upper bound on a single frame; a peer announcing more is protocol abuse
#: (or a desynchronized stream) and gets disconnected rather than an OOM.
MAX_FRAME_BYTES = 64 * 1024 * 1024

DEFAULT_HEARTBEAT_S = 5.0

#: A worker is declared dead after this many heartbeat intervals of silence.
LIVENESS_INTERVALS = 3

#: Built evaluators a worker keeps; the least recently used goes first.
WORKER_SPEC_SLOTS = 4

#: ``error.kind`` values a result frame may carry: a fault kind, ``"spec"``
#: (the worker could not build the spec) or ``None`` (any other exception).
_ERROR_KINDS = (None, "spec") + FAULT_KINDS

_HANDSHAKE_TIMEOUT_S = 10.0


class TransportError(RuntimeError):
    """Base class for socket-transport failures."""


class HandshakeError(TransportError):
    """The peer spoke a different protocol version (or not the protocol)."""


class WorkerDied(TransportError):
    """A worker died (EOF, reset, or heartbeat silence) with a task in flight.

    Deliberately *not* an :class:`~repro.core.faults.EvaluationFault`: the
    executor catches it explicitly and applies its bounded-resubmission
    policy instead of failing the run.
    """


class BrokerShutdown(TransportError):
    """The broker shut down before this task was dispatched to any worker."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, message: Dict[str, Any], lock: Optional[threading.Lock] = None) -> None:
    """Send one JSON frame (optionally under a lock shared with a ping thread)."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES")
    payload = HEADER.pack(len(data)) + data
    if lock is not None:
        with lock:
            sock.sendall(payload)
    else:
        sock.sendall(payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame boundary.

    ``socket.timeout`` propagates only when *zero* bytes have been read —
    once a frame is partially read we keep looping, because surfacing a
    timeout mid-frame would desynchronize the stream.  EOF mid-frame raises
    :class:`TransportError`.
    """
    chunks: List[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except socket.timeout:
            if got == 0:
                raise
            continue
        if not chunk:
            if got == 0:
                return None
            raise TransportError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one JSON frame; ``None`` on clean EOF between frames."""
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})")
    body = _recv_exact(sock, length)
    if body is None:
        raise TransportError("connection closed between frame header and body")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise TransportError("frame is not an object with a 'type' field")
    return message


def spec_digest(spec: Mapping[str, Any]) -> str:
    """The sha256 of a spec's canonical JSON: the name tasks refer to it by."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------


class _Task:
    __slots__ = ("id", "spec", "digest", "config", "future")

    def __init__(self, task_id: int, spec: Mapping[str, Any], config: Configuration, future) -> None:
        self.id = task_id
        self.spec = spec
        self.digest = spec_digest(spec)
        self.config = config
        self.future = future


class _WorkerConn:
    __slots__ = ("sock", "id", "name", "send_lock", "last_seen", "inflight")

    def __init__(self, sock: socket.socket, worker_id: int, name: str) -> None:
        self.sock = sock
        self.id = worker_id
        self.name = name
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.inflight: Optional[_Task] = None


class EvaluationBroker:
    """One evaluation queue, drained by any number of connected workers.

    ``submit(spec, config)`` returns a ``concurrent.futures.Future``
    resolving to ``(metrics, attempts)`` as computed by *some* worker — which
    one is invisible to callers, keeping the executor's submission-order
    gather the sole arbiter of determinism.  Each worker holds at most one
    task at a time, so a dead worker loses at most one dispatched task
    (failed with :class:`WorkerDied`); everything still queued is untouched.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        announce_file: Optional[str] = None,
    ) -> None:
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be > 0")
        self._host = host
        self._port = int(port)
        self.heartbeat_s = float(heartbeat_s)
        self._announce_file = announce_file
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._serve_threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._workers_changed = threading.Condition(self._lock)
        self._conns: Dict[int, _WorkerConn] = {}
        self._queue: List[_Task] = []
        self._queue_lock = threading.Lock()
        self._queue_ready = threading.Condition(self._queue_lock)
        self._next_worker_id = 1
        self._next_task_id = 1
        self._closing = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "EvaluationBroker":
        """Bind, listen, and start accepting workers. Idempotent."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        self._accept_thread.start()
        if self._announce_file:
            atomic_write_json(self._announce_file, {"host": self._host, "port": self._port})
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the broker is listening on (port resolved after start)."""
        return (self._host, self._port)

    def __enter__(self) -> "EvaluationBroker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting, disconnect workers, fail undispatched futures.

        Signature-compatible with ``concurrent.futures.Executor.shutdown``,
        so :class:`~repro.core.executor.EvaluationExecutor` holds either as
        its pool.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            conns = list(self._conns.values())
        if self._listener is not None:
            # Closing a listening socket does not wake a thread blocked in
            # accept() on Linux; shutting it down first does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in conns:
            try:
                send_frame(conn.sock, {"type": "shutdown"}, lock=conn.send_lock)
            except OSError:
                pass
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        with self._queue_lock:
            leftovers, self._queue = self._queue, []
            self._queue_ready.notify_all()
        for task in leftovers:
            if not task.future.done():
                task.future.set_exception(BrokerShutdown("broker shut down before dispatch"))
        if wait:
            for thread in list(self._serve_threads):
                thread.join(timeout=5.0)
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=5.0)

    # -- submission ---------------------------------------------------------------
    def submit(self, spec: Mapping[str, Any], config: Configuration) -> concurrent.futures.Future:
        """Enqueue one evaluation of ``config`` by the evaluator ``spec``
        describes; its future resolves to ``(metrics, attempts)``."""
        if self._closing:
            raise RuntimeError("this EvaluationBroker has been shut down")
        if not self._started:
            self.start()
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._queue_lock:
            task = _Task(self._next_task_id, spec, config, future)
            self._next_task_id += 1
            self._queue.append(task)
            self._queue_ready.notify()
        return future

    # -- observability / test hooks ----------------------------------------------
    @property
    def n_workers_connected(self) -> int:
        with self._lock:
            return len(self._conns)

    def wait_for_workers(self, n: int, timeout: Optional[float] = None) -> bool:
        """Block until ``n`` workers are connected (or the timeout elapses)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._workers_changed:
            while len(self._conns) < n:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._workers_changed.wait(timeout=remaining)
            return True

    def kill_worker(self, worker_id: Optional[int] = None, prefer_busy: bool = True) -> Optional[int]:
        """Force-close one worker connection (test hook for death drills).

        Prefers a worker with a dispatched task so the :class:`WorkerDied`
        resubmission path is actually exercised.  Returns the killed worker's
        id, or ``None`` when no worker is connected.
        """
        with self._lock:
            conns = list(self._conns.values())
        if worker_id is not None:
            victims = [c for c in conns if c.id == worker_id]
        elif prefer_busy:
            victims = [c for c in conns if c.inflight is not None] or conns
        else:
            victims = conns
        if not victims:
            return None
        victim = victims[0]
        try:
            victim.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            victim.sock.close()
        except OSError:
            pass
        return victim.id

    def debug_snapshot(self) -> Dict[str, Any]:
        """State dump for test diagnostics (deadline failures print this)."""
        with self._lock:
            workers = [
                {
                    "id": c.id,
                    "name": c.name,
                    "inflight": None if c.inflight is None else c.inflight.id,
                    "silent_for_s": round(time.monotonic() - c.last_seen, 3),
                }
                for c in self._conns.values()
            ]
        with self._queue_lock:
            queued = [t.id for t in self._queue]
        return {
            "address": list(self.address),
            "closing": self._closing,
            "workers": workers,
            "queued_task_ids": queued,
        }

    # -- internals ----------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break
            threading.Thread(
                target=self._handshake_then_serve, args=(sock,), daemon=True
            ).start()

    def _handshake_then_serve(self, sock: socket.socket) -> None:
        try:
            # A ``spec`` frame is followed at once by its ``task`` frame;
            # with Nagle on, the second waits for the worker's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(_HANDSHAKE_TIMEOUT_S)
            hello = recv_frame(sock)
            if (
                hello is None
                or hello.get("type") != "hello"
                or hello.get("role") != "worker"
            ):
                send_frame(sock, {"type": "reject", "error": "expected a worker hello"})
                sock.close()
                return
            if hello.get("proto") != PROTOCOL_VERSION:
                send_frame(
                    sock,
                    {
                        "type": "reject",
                        "error": f"protocol version {hello.get('proto')!r} != {PROTOCOL_VERSION}",
                    },
                )
                sock.close()
                return
        except (OSError, TransportError):
            try:
                sock.close()
            except OSError:
                pass
            return
        with self._workers_changed:
            if self._closing:
                sock.close()
                return
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            conn = _WorkerConn(sock, worker_id, str(hello.get("name") or f"worker-{worker_id}"))
            self._conns[worker_id] = conn
            self._workers_changed.notify_all()
        try:
            send_frame(
                sock,
                {
                    "type": "welcome",
                    "proto": PROTOCOL_VERSION,
                    "worker": worker_id,
                    "heartbeat_s": self.heartbeat_s,
                },
                lock=conn.send_lock,
            )
        except OSError:
            self._drop_conn(conn)
            return
        thread = threading.Thread(
            target=self._serve_worker, args=(conn,), name=f"broker-worker-{worker_id}", daemon=True
        )
        # Started before it is listed: ``shutdown`` joins every listed thread,
        # and joining one that has not started raises.
        thread.start()
        self._serve_threads.append(thread)

    def _drop_conn(self, conn: _WorkerConn) -> None:
        with self._workers_changed:
            self._conns.pop(conn.id, None)
            self._workers_changed.notify_all()
        try:
            conn.sock.close()
        except OSError:
            pass

    def _requeue(self, task: _Task) -> None:
        """Put an undispatched task back at the head of the queue (no fault)."""
        with self._queue_lock:
            if self._closing:
                if not task.future.done():
                    task.future.set_exception(BrokerShutdown("broker shut down before dispatch"))
                return
            self._queue.insert(0, task)
            self._queue_ready.notify()

    def _take_task(self, timeout: float) -> Optional[_Task]:
        with self._queue_lock:
            if not self._queue:
                self._queue_ready.wait(timeout=timeout)
            if self._queue:
                return self._queue.pop(0)
            return None

    def _drain_control(self, conn: _WorkerConn) -> bool:
        """Consume buffered pings without blocking; False when the worker died."""
        while True:
            try:
                readable, _, _ = select.select([conn.sock], [], [], 0)
            except (OSError, ValueError):
                return False
            if not readable:
                return True
            try:
                conn.sock.settimeout(self.heartbeat_s)
                msg = recv_frame(conn.sock)
            except socket.timeout:
                return True
            except (OSError, TransportError):
                return False
            if msg is None:
                return False
            if msg.get("type") == "ping":
                conn.last_seen = time.monotonic()
            # Anything else between tasks is a stray late frame; ignore it.

    def _serve_worker(self, conn: _WorkerConn) -> None:
        liveness_s = self.heartbeat_s * LIVENESS_INTERVALS
        try:
            while not self._closing:
                # Detect a worker that died while idle *before* dispatching
                # to it: a task that never reaches a worker is requeued with
                # no fault charged, so idle deaths are invisible to callers.
                if not self._drain_control(conn):
                    return
                if time.monotonic() - conn.last_seen > liveness_s:
                    return
                task = self._take_task(timeout=min(self.heartbeat_s, 0.2))
                if task is None:
                    continue
                if task.future.cancelled():
                    continue
                try:
                    self._send_task(conn, task)
                except OSError:
                    self._requeue(task)
                    return
                except (TypeError, ValueError) as exc:
                    task.future.set_exception(
                        TransportError(f"task {task.id}: configuration is not JSON: {exc}")
                    )
                    continue
                conn.inflight = task
                # On success _await_result clears conn.inflight; on death it
                # leaves the task attached so the finally-block backstop
                # fails its future with WorkerDied.
                if not self._await_result(conn, task):
                    return
        finally:
            self._fail_inflight(conn)
            self._drop_conn(conn)

    @staticmethod
    def _send_task(conn: _WorkerConn, task: _Task) -> None:
        send_frame(
            conn.sock,
            {"type": "task", "id": task.id, "spec": task.digest, "config": dict(task.config)},
            lock=conn.send_lock,
        )

    def _await_result(self, conn: _WorkerConn, task: _Task) -> bool:
        """Serve ``task`` until it resolves (False: the worker died).  A first
        ``need_spec`` gets the spec and the task again; a second fails it."""
        liveness_s = self.heartbeat_s * LIVENESS_INTERVALS
        conn.last_seen = time.monotonic()
        spec_sent = False
        while True:
            try:
                conn.sock.settimeout(self.heartbeat_s)
                msg = recv_frame(conn.sock)
            except socket.timeout:
                if self._closing or time.monotonic() - conn.last_seen > liveness_s:
                    return False
                continue
            except (OSError, TransportError):
                return False
            if msg is None:
                return False
            kind = msg.get("type")
            if kind == "ping":
                conn.last_seen = time.monotonic()
                continue
            if kind not in ("need_spec", "result") or msg.get("id") != task.id:
                continue  # stray frame from a previous life of this id
            if kind == "need_spec" and not spec_sent:
                spec_sent = True
                try:
                    send_frame(
                        conn.sock,
                        {"type": "spec", "hash": task.digest, "spec": task.spec},
                        lock=conn.send_lock,
                    )
                    self._send_task(conn, task)
                except OSError:
                    return False
                continue
            conn.inflight = None
            if kind == "need_spec":
                outcome: Union[Tuple, BaseException] = TransportError(
                    f"worker {conn.id} ({conn.name}) asked for spec {task.digest[:12]} "
                    f"twice for task {task.id}"
                )
            else:
                outcome = self._read_result(conn, task, msg)
            if not task.future.done():
                if isinstance(outcome, BaseException):
                    task.future.set_exception(outcome)
                else:
                    task.future.set_result(outcome)
            return True

    def _read_result(
        self, conn: _WorkerConn, task: _Task, msg: Dict[str, Any]
    ) -> Union[Tuple, BaseException]:
        """A result frame's ``(metrics, attempts)``, or the exception its task fails with."""
        ok, metrics, attempts, error = (msg.get(k) for k in ("ok", "metrics", "attempts", "error"))
        if ok is True and isinstance(metrics, dict) and isinstance(attempts, (list, type(None))):
            # Exact types: a JSON true decodes to a bool, which is no metric.
            numbers = (type(v) in (int, float) for v in metrics.values())
            if all(numbers) and all(isinstance(a, dict) for a in attempts or ()):
                return {k: float(v) for k, v in metrics.items()}, attempts
        elif ok is False and isinstance(error, dict) and error.get("kind") in _ERROR_KINDS:
            if isinstance(error.get("type"), str) and isinstance(error.get("message"), str):
                if error["kind"] != "spec":
                    return fault_from_error(task.config, error)
                return TransportError(
                    f"worker {conn.id} ({conn.name}) cannot build evaluator type "
                    f"{task.spec['evaluator'].get('type')!r}: {error['type']}: {error['message']}"
                )
        return TransportError(f"malformed result from worker {conn.id} ({conn.name}), task {task.id}")

    def _fail_inflight(self, conn: _WorkerConn) -> None:
        task, conn.inflight = conn.inflight, None
        if task is not None and not task.future.done():
            task.future.set_exception(
                WorkerDied(
                    f"worker {conn.id} ({conn.name}) died with task {task.id} in flight"
                )
            )


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _build_spec(spec: Dict[str, Any]) -> Tuple[Any, Optional[FaultPolicy]]:
    """``(evaluator, fault policy)`` of a spec, checked before anything is built."""
    from repro.core.study import build_evaluator  # study -> executor -> this module

    spec = dict(spec)
    policy = spec.pop("policy", None)
    policy = None if policy is None else FaultPolicy(**policy)
    return build_evaluator(Scenario.from_dict(spec)), policy


def _error(kind: Optional[str], exc: BaseException) -> Dict[str, Any]:
    return {"kind": kind, "type": type(exc).__name__, "message": str(exc)}


class EvalWorker:
    """A worker that connects to a broker, drains tasks, and heartbeats.

    It keeps the evaluators it builds from specs, up to
    :data:`WORKER_SPEC_SLOTS`.  ``run()`` returns ``True`` on a clean end
    (broker sent ``shutdown`` or ``max_tasks`` was reached) and ``False``
    when the broker died.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        connect_timeout_s: float = 30.0,
        max_tasks: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name or f"{socket.gethostname()}-{id(self) & 0xFFFF:x}"
        self.connect_timeout_s = float(connect_timeout_s)
        self.max_tasks = max_tasks
        self.worker_id: Optional[int] = None
        self.heartbeat_s = DEFAULT_HEARTBEAT_S
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._ping_thread: Optional[threading.Thread] = None
        # spec hash -> (evaluator, fault policy), or the error a build raised.
        self._specs: "OrderedDict[str, Any]" = OrderedDict()

    def connect(self) -> int:
        """Connect with retry until ``connect_timeout_s``, then handshake.

        Returns the broker-assigned worker id and starts the heartbeat
        thread (pings flow even while an evaluation is running).
        """
        deadline = time.monotonic() + self.connect_timeout_s
        last_err: Optional[Exception] = None
        while True:
            try:
                sock = socket.create_connection((self.host, self.port), timeout=5.0)
                break
            except OSError as exc:
                last_err = exc
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"could not connect to broker {self.host}:{self.port} "
                        f"within {self.connect_timeout_s}s: {exc}"
                    ) from exc
                time.sleep(0.1)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        send_frame(
            sock,
            {"type": "hello", "proto": PROTOCOL_VERSION, "role": "worker", "name": self.name},
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") == "reject":
            sock.close()
            raise HandshakeError(
                f"broker rejected the handshake: {(welcome or {}).get('error', 'connection closed')}"
            )
        if welcome.get("type") != "welcome" or welcome.get("proto") != PROTOCOL_VERSION:
            sock.close()
            raise HandshakeError(f"unexpected handshake reply: {welcome}")
        self.worker_id = int(welcome["worker"])
        self.heartbeat_s = float(welcome.get("heartbeat_s") or DEFAULT_HEARTBEAT_S)
        self._sock = sock
        self._ping_thread = threading.Thread(
            target=self._ping_loop, name=f"eval-worker-ping-{self.worker_id}", daemon=True
        )
        self._ping_thread.start()
        return self.worker_id

    def _ping_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            try:
                assert self._sock is not None
                send_frame(self._sock, {"type": "ping"}, lock=self._send_lock)
            except OSError:
                return

    def run(self) -> bool:
        """Serve tasks until shutdown/broker death; returns clean-exit flag."""
        if self._sock is None:
            self.connect()
        assert self._sock is not None
        sock = self._sock
        served = 0
        clean = False
        try:
            while not self._stop.is_set():
                try:
                    sock.settimeout(1.0)
                    msg = recv_frame(sock)
                except socket.timeout:
                    continue
                except (OSError, TransportError):
                    break
                if msg is None:
                    break
                kind = msg.get("type")
                if kind == "shutdown":
                    clean = True
                    break
                if kind == "spec":
                    self._load_spec(msg)
                    continue
                if kind != "task":
                    continue
                reply = self._execute(msg)
                try:
                    send_frame(sock, reply, lock=self._send_lock)
                except OSError:
                    break
                if reply["type"] != "result":
                    continue
                served += 1
                if self.max_tasks is not None and served >= self.max_tasks:
                    clean = True
                    break
        finally:
            self.close()
        return clean

    def _load_spec(self, msg: Dict[str, Any]) -> None:
        """Build (or fail to build) the evaluator of a ``spec`` frame and keep it."""
        digest = msg.get("hash")
        if not isinstance(digest, str):
            return
        try:
            if spec_digest(msg.get("spec")) != digest:
                raise TransportError("the spec does not match its hash")
            entry: Any = _build_spec(msg.get("spec"))
        except Exception as exc:  # noqa: BLE001 — reported with every task of the spec
            entry = _error("spec", exc)
        self._specs[digest] = entry
        while len(self._specs) > WORKER_SPEC_SLOTS:
            self._specs.popitem(last=False)

    def _execute(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        task_id, digest = msg.get("id"), msg.get("spec")
        entry = self._specs.get(digest) if isinstance(digest, str) else None
        if entry is None:
            return {"type": "need_spec", "id": task_id}
        self._specs.move_to_end(digest)
        if isinstance(entry, dict):  # the spec did not build
            return {"type": "result", "id": task_id, "ok": False, "error": entry}
        evaluator, policy = entry
        try:
            config = config_from_dict(evaluator.space, msg["config"])
            if policy is not None:
                metrics, attempts = call_with_policy(evaluator, config, policy)
            else:
                metrics, attempts = evaluator.evaluate_one(config), None
        except Exception as exc:  # noqa: BLE001 — every failure crosses the wire
            kind = exc.kind if isinstance(exc, EvaluationFault) else None
            return {"type": "result", "id": task_id, "ok": False, "error": _error(kind, exc)}
        return {"type": "result", "id": task_id, "ok": True, "metrics": metrics, "attempts": attempts}

    def close(self) -> None:
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def spawn_local_workers(address: Tuple[str, int], n: int) -> List[threading.Thread]:
    """Start ``n`` in-process worker threads against a broker address.

    Each thread runs a full :class:`EvalWorker` over real loopback TCP —
    the same framing/handshake/heartbeat path remote processes use — so
    ``workers: "local"`` scenarios exercise the genuine transport.
    """
    threads: List[threading.Thread] = []
    for i in range(n):
        worker = EvalWorker(address[0], address[1], name=f"local-{i}")

        def _run(w: EvalWorker = worker) -> None:
            try:
                w.connect()
                w.run()
            except TransportError:
                pass

        thread = threading.Thread(target=_run, name=f"eval-worker-{i}", daemon=True)
        thread.start()
        threads.append(thread)
    return threads


#: Defaults materialized into a scenario's ``executor.transport`` section.
DEFAULT_TRANSPORT: Dict[str, Any] = {
    "host": "127.0.0.1",
    "port": 0,
    "heartbeat_s": DEFAULT_HEARTBEAT_S,
    "workers": "local",
    "announce_file": None,
}


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_TRANSPORT",
    "LIVENESS_INTERVALS",
    "TransportError",
    "HandshakeError",
    "WorkerDied",
    "BrokerShutdown",
    "WORKER_SPEC_SLOTS",
    "send_frame",
    "recv_frame",
    "spec_digest",
    "EvaluationBroker",
    "EvalWorker",
    "spawn_local_workers",
]
