"""Socket transport for distributed evaluation (one queue, many hosts).

The paper's operating mode is a fleet of heterogeneous devices draining one
optimization loop's evaluation queue (the 83-device crowd of Fig. 5).  This
module is the wire layer that makes that topology real:

* **framing** — length-prefixed JSON frames over TCP (stdlib only: a 4-byte
  big-endian length followed by a UTF-8 JSON object).  Task payloads are
  pickled and base64-embedded, so arbitrary evaluator callables cross the
  wire exactly as they cross a ``ProcessPoolExecutor`` boundary,
* **versioned handshake** — workers open with a ``hello`` carrying
  :data:`PROTOCOL_VERSION`; the broker answers ``welcome`` (assigning a
  worker id and the heartbeat interval) or ``reject``,
* **heartbeats** — workers ping on a fixed interval, including *during* a
  long evaluation (the ping thread is independent of the evaluation); the
  broker declares a worker dead after ``3 × heartbeat_s`` of silence or on
  EOF/reset, whichever comes first,
* **an evaluation broker** — :class:`EvaluationBroker` owns one FIFO task
  queue and hands exactly one task at a time to each connected worker.  Its
  :meth:`~EvaluationBroker.submit` returns a ``concurrent.futures.Future``,
  so it duck-types as the worker pool behind
  :class:`~repro.core.executor.EvaluationExecutor`'s ``backend="socket"``.

Failure semantics, precisely:

* a task that never reached a worker (send failed, worker died while idle)
  is **requeued silently** — no fault is charged to the configuration,
* a task that was dispatched when its worker died fails its future with
  :class:`WorkerDied`; the *executor* decides whether to resubmit
  (bounded) or quarantine, reusing the :mod:`repro.core.faults` taxonomy,
* broker shutdown fails all queued-but-undispatched futures with
  :class:`BrokerShutdown`.

Determinism is owned one layer up: the executor gathers results in
submission order, so *which* worker returns a result — and in what order
results arrive — never touches the history.
"""

from __future__ import annotations

import base64
import concurrent.futures
import json
import pickle
import select
import socket
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.durable import atomic_write_json

PROTOCOL_VERSION = 1

#: 4-byte big-endian frame length prefix.
HEADER = struct.Struct(">I")

#: Upper bound on a single frame; a peer announcing more is protocol abuse
#: (or a desynchronized stream) and gets disconnected rather than an OOM.
MAX_FRAME_BYTES = 64 * 1024 * 1024

DEFAULT_HEARTBEAT_S = 5.0

#: A worker is declared dead after this many heartbeat intervals of silence.
LIVENESS_INTERVALS = 3

_HANDSHAKE_TIMEOUT_S = 10.0


class TransportError(RuntimeError):
    """Base class for socket-transport failures."""


class HandshakeError(TransportError):
    """The peer spoke a different protocol version (or not the protocol)."""


class WorkerDied(TransportError):
    """A worker died (EOF, reset, or heartbeat silence) with a task in flight.

    Deliberately *not* an :class:`~repro.core.faults.EvaluationFault` and not
    a ``BrokenExecutor``: the executor catches it explicitly and applies its
    bounded-resubmission policy instead of failing the run.
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


def dumps_b64(obj: Any) -> str:
    """Pickle + base64 an object for embedding in a JSON frame."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def loads_b64(payload: str) -> Any:
    """Inverse of :func:`dumps_b64`."""
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------


class _Task:
    __slots__ = ("id", "payload", "future")

    def __init__(self, task_id: int, payload: str, future: concurrent.futures.Future) -> None:
        self.id = task_id
        self.payload = payload
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

    ``submit(fn, *args)`` returns a ``concurrent.futures.Future`` resolving
    to ``fn(*args)`` as computed by *some* worker — which one is invisible to
    callers, keeping the executor's submission-order gather the sole arbiter
    of determinism.  Each worker holds at most one task at a time, so a dead
    worker loses at most one dispatched task (failed with
    :class:`WorkerDied`); everything still queued is untouched.
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

        Signature-compatible with ``concurrent.futures.Executor.shutdown`` so
        the broker (and the pools wrapping it) slot into the pool lifecycle
        of :class:`~repro.core.executor.EvaluationExecutor` unchanged.
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
    def submit(self, fn, *args) -> concurrent.futures.Future:
        """Enqueue ``fn(*args)`` for some worker; returns its future."""
        if self._closing:
            raise RuntimeError("this EvaluationBroker has been shut down")
        if not self._started:
            self.start()
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._queue_lock:
            task = _Task(self._next_task_id, dumps_b64((fn, args)), future)
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
                    send_frame(
                        conn.sock,
                        {"type": "task", "id": task.id, "payload": task.payload},
                        lock=conn.send_lock,
                    )
                except OSError:
                    self._requeue(task)
                    return
                conn.inflight = task
                # On success _await_result clears conn.inflight; on death it
                # leaves the task attached so the finally-block backstop
                # fails its future with WorkerDied.
                if not self._await_result(conn, task):
                    return
        finally:
            self._fail_inflight(conn)
            self._drop_conn(conn)

    def _await_result(self, conn: _WorkerConn, task: _Task) -> bool:
        liveness_s = self.heartbeat_s * LIVENESS_INTERVALS
        conn.last_seen = time.monotonic()
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
            if kind != "result" or msg.get("id") != task.id:
                continue  # stray frame from a previous life of this id
            conn.inflight = None
            try:
                outcome = loads_b64(msg["payload"])
            except Exception as exc:  # undecodable result: charge the task
                if not task.future.done():
                    task.future.set_exception(
                        TransportError(f"undecodable result payload: {exc}")
                    )
                return True
            if not task.future.done():
                if msg.get("ok"):
                    task.future.set_result(outcome)
                else:
                    task.future.set_exception(outcome)
            return True

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


class EvalWorker:
    """A worker that connects to a broker, drains tasks, and heartbeats.

    ``run()`` returns ``True`` on a clean end (broker sent ``shutdown`` or
    ``max_tasks`` was reached) and ``False`` when the broker died.
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
                if kind != "task":
                    continue
                reply = self._execute(msg)
                try:
                    send_frame(sock, reply, lock=self._send_lock)
                except OSError:
                    break
                served += 1
                if self.max_tasks is not None and served >= self.max_tasks:
                    clean = True
                    break
        finally:
            self.close()
        return clean

    def _execute(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        task_id = msg.get("id")
        try:
            fn, args = loads_b64(msg["payload"])
            outcome = fn(*args)
            ok = True
        except BaseException as exc:  # noqa: BLE001 — every failure crosses the wire
            outcome = exc
            ok = False
        try:
            payload = dumps_b64(outcome)
        except Exception as exc:
            # Unpicklable outcome (or exception): degrade to a typed error
            # string rather than silently dropping the task.
            ok = False
            payload = dumps_b64(
                TransportError(f"unpicklable task outcome ({type(outcome).__name__}): {exc}")
            )
        return {"type": "result", "id": task_id, "ok": ok, "payload": payload}

    def close(self) -> None:
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def spawn_local_workers(
    address: Tuple[str, int], n: int, *, name_prefix: str = "local"
) -> List[threading.Thread]:
    """Start ``n`` in-process worker threads against a broker address.

    Each thread runs a full :class:`EvalWorker` over real loopback TCP —
    the same framing/handshake/heartbeat path remote processes use — so
    ``workers: "local"`` scenarios exercise the genuine transport.
    """
    threads: List[threading.Thread] = []
    for i in range(n):
        worker = EvalWorker(address[0], address[1], name=f"{name_prefix}-{i}")

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


# ---------------------------------------------------------------------------
# Pool adapters (duck-type concurrent.futures.Executor for the executor)
# ---------------------------------------------------------------------------


class BrokerPool:
    """An executor-owned broker + its local worker threads.

    Built by :class:`~repro.core.executor.EvaluationExecutor` for
    ``backend="socket"`` without an injected broker; ``shutdown`` tears the
    whole transport down with the executor.
    """

    def __init__(self, broker: EvaluationBroker, worker_threads: List[threading.Thread]) -> None:
        self.broker = broker
        self._worker_threads = worker_threads

    def submit(self, fn, *args) -> concurrent.futures.Future:
        return self.broker.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        self.broker.shutdown(wait=wait)
        if wait:
            for thread in self._worker_threads:
                thread.join(timeout=5.0)

    @property
    def _shutdown(self) -> bool:  # parity with concurrent.futures pools (tests peek)
        return self.broker._closing


class SharedBrokerPool:
    """A view on a broker owned by someone else (service/scheduler/test).

    ``shutdown`` is a no-op: closing one study's executor must not tear down
    the fleet other studies are still using.
    """

    def __init__(self, broker: EvaluationBroker) -> None:
        self.broker = broker

    def submit(self, fn, *args) -> concurrent.futures.Future:
        return self.broker.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:  # noqa: ARG002 — lifecycle owned elsewhere
        return None

    @property
    def _shutdown(self) -> bool:
        return self.broker._closing


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
    "send_frame",
    "recv_frame",
    "dumps_b64",
    "loads_b64",
    "EvaluationBroker",
    "EvalWorker",
    "spawn_local_workers",
    "BrokerPool",
    "SharedBrokerPool",
]
