"""The persistent verification daemon behind ``repro serve``.

One daemon process holds the verification pipelines open as a service:
clients connect over a TCP or Unix-domain socket, submit ``lin`` /
``lockfree`` / ``verify`` / ``explore`` requests as RPX1 frames, and receive
progress and verdict frames back.  The architecture is a single
``selectors``-driven I/O loop (accept, read, write, idle heartbeats)
plus a small pool of job-runner threads, joined by a wakeup pipe so a
finishing job interrupts the poll immediately.

The failure model (docs/ROBUSTNESS.md, "The verification service"):

* **Queue overflow is backpressure, not collapse.**  The job queue is
  bounded; a submission past the cap is answered with a ``rejected``
  frame naming the reason, and nothing else changes.
* **A disconnected client does not kill its job.**  Jobs track their
  subscribers; when the last one vanishes the job runs to completion
  anyway and the (decided) result parks in the cache, where the
  client's resubmission finds it.
* **Identical concurrent submissions run once.**  Requests are keyed by
  the same fingerprint as the cache; a submission matching an in-flight
  job subscribes to that job instead of enqueueing a duplicate.
* **Shutdown is graceful by construction.**  SIGTERM/SIGINT cancel the
  in-flight jobs through their budget tokens; the exploration layer
  reacts by writing a salvage checkpoint (the PR 4/5 machinery), the
  pipelines return UNKNOWN results that are delivered but never
  cached, and a restarted daemon resumes the exploration from the
  checkpoint when the job is resubmitted.
* **A SIGKILL loses nothing but time.**  Every durable artifact -- the
  result cache and the per-job checkpoints -- is CRC-framed and written
  atomically; a half-written file is quarantined on the next load, and
  periodic checkpoint saves bound the lost work.

Only *decided* results (TRUE / FALSE / disagreement, or a completed
``explore``) are cached; UNKNOWN means "ran out of budget", which a
later, luckier run may well improve on.
"""

from __future__ import annotations

import collections
import os
import selectors
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Set, Tuple

from ..lang.checkpoint import CheckpointSink, load_checkpoint_or_quarantine
from ..parallel.protocol import FrameDecoder, ProtocolError, encode_frame
from ..util.budget import UNKNOWN, CancellationToken, RunBudget
from ..verify.job import exit_code, run_job
from .cache import ResultCache
from .channel import SERVICE_MAX_FRAME_BYTES, listen_socket, parse_address
from .messages import (
    MSG_ACCEPTED,
    MSG_CLOSING,
    MSG_HEARTBEAT,
    MSG_PING,
    MSG_PONG,
    MSG_PROGRESS,
    MSG_REJECTED,
    MSG_RESULT,
    MSG_STATUS,
    MSG_STATUS_REPLY,
    MSG_SUBMIT,
    build_request,
    request_cache_key,
)

#: Schema tag carried by every result dict the daemon produces (the
#: layout of :func:`repro.verify.job.run_job`; a change to it also bumps
#: the cache schema, so older entries are recomputed, never rendered).
RESULT_SCHEMA = "repro.service-result/v2"


@dataclass
class DaemonConfig:
    """Tunables for one daemon instance.

    ``heartbeat_seconds`` follows the worker-heartbeat convention from
    :mod:`repro.parallel`: it is the spacing of liveness frames on an
    otherwise idle connection, so a client whose receive timeout is a
    few multiples of it can tell "daemon busy" from "daemon dead".
    ``checkpoint_seconds`` bounds the work a SIGKILL can lose: each
    running job's exploration snapshots at most that often (and always
    once at the first safe point).
    """

    socket: str
    state_dir: str
    #: In-flight (queued + running) job cap; beyond it, submissions are
    #: rejected with a backpressure message.
    queue_size: int = 8
    job_workers: int = 2
    cache_entries: int = 256
    heartbeat_seconds: float = 2.0
    checkpoint_seconds: float = 1.0
    #: Default per-job wall-clock budget (None = unbounded); a request
    #: carrying its own ``deadline`` overrides it.
    job_deadline: Optional[float] = None
    max_frame_bytes: int = SERVICE_MAX_FRAME_BYTES
    #: Test hook: when set, job runners block until this event is set
    #: before starting each job (lets tests pile up a queue
    #: deterministically).  Production leaves it ``None``.
    job_gate: Optional[threading.Event] = None

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.job_workers < 1:
            raise ValueError("job_workers must be >= 1")
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")


@dataclass
class _Conn:
    """Per-connection state owned by the I/O loop thread."""

    conn_id: int
    sock: socket.socket
    decoder: FrameDecoder
    outbox: bytearray = field(default_factory=bytearray)
    #: Job ids this connection is subscribed to.
    jobs: Set[str] = field(default_factory=set)
    last_send: float = field(default_factory=time.monotonic)
    #: Flush the outbox, then close (set after a protocol fault or
    #: during shutdown).
    closing: bool = False


@dataclass
class _Job:
    """One admitted verification job."""

    job_id: str
    #: The cache key -- doubles as the dedup identity and the
    #: checkpoint file name.
    key: str
    request: Dict[str, Any]
    token: CancellationToken
    subscribers: Set[int] = field(default_factory=set)
    state: str = "queued"  # queued -> running -> done
    resumed: bool = False


class VerificationDaemon:
    """The daemon itself (see module docstring for the architecture).

    Lifecycle: :meth:`bind` claims the socket, :meth:`run_forever` runs
    the I/O loop in the calling thread (the CLI path, with signal
    handlers), :meth:`start` runs it in a background thread (the test
    path).  :meth:`shutdown` is safe to call from any thread or from a
    signal handler; :meth:`join` waits for a started daemon to finish.
    """

    def __init__(self, config: DaemonConfig) -> None:
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.jobs_dir = os.path.join(config.state_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.cache = ResultCache(
            os.path.join(config.state_dir, "cache"),
            max_entries=config.cache_entries,
        )
        #: Guards the cache, the job tables and the counters -- the
        #: pieces both the I/O loop and the job runners touch.
        self._lock = threading.RLock()
        self.counters: Dict[str, int] = collections.defaultdict(int)
        self._jobs: Dict[str, _Job] = {}          # by cache key
        self._jobs_by_id: Dict[str, _Job] = {}
        self._runq: "collections.deque[Optional[_Job]]" = collections.deque()
        self._runq_ready = threading.Semaphore(0)
        self._completed: Deque[Tuple[_Job, Dict[str, Any]]] = collections.deque()
        self._progress: Deque[Tuple[str, Dict[str, Any]]] = collections.deque()
        self._conns: Dict[int, _Conn] = {}
        self._next_conn_id = 0
        self._next_job_id = 0
        self._stop = threading.Event()
        self._shutdown_begun = False
        self._listen: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._threads: list = []
        self._loop_thread: Optional[threading.Thread] = None
        self.endpoint: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self) -> str:
        """Claim the listening socket; returns the concrete endpoint.

        For TCP specs with port 0 the endpoint carries the kernel-
        assigned port, so tests can serve on "127.0.0.1:0".
        """
        if self._listen is not None:
            return self.endpoint or self.config.socket
        self._listen = listen_socket(self.config.socket)
        self._listen.setblocking(False)
        family, _ = parse_address(self.config.socket)
        if family == "tcp":
            host, port = self._listen.getsockname()[:2]
            self.endpoint = f"{host}:{port}"
        else:
            self.endpoint = self.config.socket
        return self.endpoint

    def start(self) -> str:
        """Bind and run in background threads (the in-process test path)."""
        endpoint = self.bind()
        self._start_workers()
        self._loop_thread = threading.Thread(
            target=self._loop, name="repro-service-loop", daemon=True
        )
        self._loop_thread.start()
        return endpoint

    def run_forever(self, install_signals: bool = True) -> None:
        """Bind and serve in the calling thread until shut down."""
        self.bind()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: self.shutdown())
        self._start_workers()
        self._loop()

    def shutdown(self) -> None:
        """Request a graceful stop (thread- and signal-safe)."""
        self._stop.set()
        self._wake()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._loop_thread is not None:
            self._loop_thread.join(timeout)

    def _start_workers(self) -> None:
        for index in range(self.config.job_workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-service-job-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"w")
        except OSError:
            pass

    # ------------------------------------------------------------------
    # the I/O loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        assert self._listen is not None
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ, "listen")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        try:
            while True:
                if self._stop.is_set() and not self._shutdown_begun:
                    self._begin_shutdown()
                for key, mask in self._selector.select(timeout=0.1):
                    if key.data == "listen":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            os.read(self._wake_r, 4096)
                        except OSError:
                            pass
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_READ:
                            self._handle_readable(conn)
                        if (
                            conn.conn_id in self._conns
                            and mask & selectors.EVENT_WRITE
                        ):
                            self._flush(conn)
                self._deliver_worker_events()
                self._send_heartbeats()
                if self._shutdown_begun and self._drained():
                    break
        finally:
            self._cleanup()

    def _drained(self) -> bool:
        with self._lock:
            jobs_done = not self._jobs
        return jobs_done and not self._completed and not self._progress

    def _begin_shutdown(self) -> None:
        self._shutdown_begun = True
        # Stop accepting; existing connections learn we are closing.
        if self._listen is not None:
            try:
                self._selector.unregister(self._listen)
            except (KeyError, ValueError):
                pass
            self._listen.close()
        for conn in list(self._conns.values()):
            self._send(conn, (MSG_CLOSING, "daemon shutting down"))
        # Cancel every admitted job: the budget token trips at the next
        # cooperative check, the exploration layer writes its salvage
        # checkpoint, and the UNKNOWN result is delivered un-cached.
        with self._lock:
            for job in self._jobs.values():
                job.token.set()
        # One sentinel per worker, queued *behind* the pending jobs so
        # each of those still gets its (now immediately-interrupted,
        # checkpoint-leaving) turn.
        for _ in self._threads:
            self._runq.append(None)
            self._runq_ready.release()

    def _cleanup(self) -> None:
        for conn in list(self._conns.values()):
            self._flush(conn)
            self._close_conn(conn)
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._selector is not None:
            self._selector.close()
        if self._listen is not None:
            self._listen.close()
        family, address = parse_address(self.config.socket)
        if family == "unix":
            try:
                os.unlink(address)
            except OSError:
                pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        try:
            sock, _addr = self._listen.accept()
        except OSError:
            return
        sock.setblocking(False)
        self._next_conn_id += 1
        conn = _Conn(
            conn_id=self._next_conn_id,
            sock=sock,
            decoder=FrameDecoder(max_frame_bytes=self.config.max_frame_bytes),
        )
        self._conns[conn.conn_id] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self.counters["connections"] += 1

    def _close_conn(self, conn: _Conn) -> None:
        if conn.conn_id not in self._conns:
            return
        del self._conns[conn.conn_id]
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        # Unsubscribe from jobs; the jobs themselves keep running and
        # their decided results park in the cache.
        with self._lock:
            for job_id in conn.jobs:
                job = self._jobs_by_id.get(job_id)
                if job is not None and conn.conn_id in job.subscribers:
                    job.subscribers.discard(conn.conn_id)
                    self.counters["client_disconnects"] += 1

    def _interest(self, conn: _Conn) -> None:
        """Re-register the connection for the events it currently needs."""
        if conn.conn_id not in self._conns:
            return
        mask = selectors.EVENT_READ
        if conn.outbox:
            mask |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, mask, conn)
        except (KeyError, ValueError):
            pass

    def _send(self, conn: _Conn, message: Any) -> None:
        conn.outbox.extend(encode_frame(message))
        conn.last_send = time.monotonic()
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        while conn.outbox:
            try:
                sent = conn.sock.send(conn.outbox)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            del conn.outbox[:sent]
        if conn.closing and not conn.outbox:
            self._close_conn(conn)
            return
        self._interest(conn)

    def _handle_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        try:
            messages = conn.decoder.feed(data)
        except ProtocolError as exc:
            # Framing is unrecoverable on this connection; tell the
            # peer why, then close once the message is flushed.
            self.counters["protocol_errors"] += 1
            conn.closing = True
            self._send(conn, (MSG_REJECTED, f"protocol fault: {exc}"))
            return
        for message in messages:
            self._handle_message(conn, message)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def _handle_message(self, conn: _Conn, message: Any) -> None:
        tag = message[0] if isinstance(message, tuple) and message else None
        if tag == MSG_PING:
            self._send(conn, (MSG_PONG,))
        elif tag == MSG_STATUS:
            self._send(conn, (MSG_STATUS_REPLY, self.status()))
        elif tag == MSG_SUBMIT and len(message) == 2:
            self._handle_submit(conn, message[1])
        else:
            self._send(conn, (MSG_REJECTED, f"unknown message {tag!r}"))

    def _handle_submit(self, conn: _Conn, payload: Any) -> None:
        if self._shutdown_begun:
            self._send(conn, (MSG_REJECTED, "daemon is shutting down"))
            return
        try:
            if not isinstance(payload, dict):
                raise ValueError("submission payload must be a dict")
            request = build_request(**payload)
            key = request_cache_key(request)
        except (TypeError, ValueError) as exc:
            self.counters["jobs_rejected"] += 1
            self._send(conn, (MSG_REJECTED, str(exc)))
            return
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                self.counters["cache_served"] += 1
                result = dict(cached)
                result["cached"] = True
                self._send(conn, (MSG_RESULT, result["job_id"], result))
                return
            job = self._jobs.get(key)
            if job is not None:
                # Identical in-flight job: subscribe, don't duplicate.
                self.counters["jobs_deduped"] += 1
                job.subscribers.add(conn.conn_id)
                conn.jobs.add(job.job_id)
                self._send(conn, (MSG_ACCEPTED, job.job_id, {
                    "cache_key": key, "dedup": True, "state": job.state,
                }))
                return
            if len(self._jobs) >= self.config.queue_size:
                self.counters["jobs_rejected"] += 1
                self._send(conn, (MSG_REJECTED, (
                    f"queue full ({len(self._jobs)} jobs in flight, "
                    f"capacity {self.config.queue_size}); backpressure -- "
                    "retry later"
                )))
                return
            self._next_job_id += 1
            job = _Job(
                job_id=f"job-{self._next_job_id}",
                key=key,
                request=request,
                token=CancellationToken(),
                subscribers={conn.conn_id},
            )
            self._jobs[key] = job
            self._jobs_by_id[job.job_id] = job
            self.counters["jobs_accepted"] += 1
        conn.jobs.add(job.job_id)
        self._runq.append(job)
        self._runq_ready.release()
        self._send(conn, (MSG_ACCEPTED, job.job_id, {
            "cache_key": key, "dedup": False, "state": job.state,
        }))

    def status(self) -> Dict[str, Any]:
        with self._lock:
            jobs = {
                job.job_id: {
                    "key": job.request["key"],
                    "kind": job.request["kind"],
                    "state": job.state,
                    "subscribers": len(job.subscribers),
                }
                for job in self._jobs.values()
            }
            return {
                "schema": "repro.service-status/v1",
                "endpoint": self.endpoint,
                "stopping": self._stop.is_set(),
                "capacity": self.config.queue_size,
                "jobs": jobs,
                "counters": dict(self.counters),
                "cache": self.cache.stats(),
            }

    # ------------------------------------------------------------------
    # worker-thread side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            self._runq_ready.acquire()
            try:
                job = self._runq.popleft()
            except IndexError:
                continue
            if job is None:
                return
            gate = self.config.job_gate
            if gate is not None:
                while not gate.wait(0.05):
                    if self._stop.is_set():
                        break
            with self._lock:
                job.state = "running"
                self.counters["jobs_run"] += 1
            self._post_progress(job, {"stage": "start", "state": "running"})
            try:
                result = self._run_job(job)
            except Exception as exc:  # a job bug must not kill the pool
                with self._lock:
                    self.counters["job_errors"] += 1
                result = self._job_fields(job)
                result.update(
                    verdict=UNKNOWN,
                    exit_code=exit_code(UNKNOWN),
                    error=f"{type(exc).__name__}: {exc}",
                )
            with self._lock:
                job.state = "done"
                if result["error"] is None and result["exhaustion"] is None:
                    # Every part decided: park it durably and drop the
                    # checkpoint (nothing left to resume).  A FALSE with
                    # an UNKNOWN part depends on this job's budget.
                    self.cache.put(job.key, result)
                    try:
                        os.remove(self._checkpoint_path(job.key))
                    except OSError:
                        pass
            self._completed.append((job, result))
            self._wake()

    def _checkpoint_path(self, key: str) -> str:
        return os.path.join(self.jobs_dir, f"{key}.ckpt")

    def _post_progress(self, job: _Job, payload: Dict[str, Any]) -> None:
        self._progress.append((job.job_id, payload))
        self._wake()

    def _job_fields(self, job: _Job) -> Dict[str, Any]:
        """What the daemon adds to a job's result dict."""
        return {
            "schema": RESULT_SCHEMA,
            "job_id": job.job_id,
            "cache_key": job.key,
            "cached": False,
            "resumed": job.resumed,
            "error": None,
        }

    def _run_job(self, job: _Job) -> Dict[str, Any]:
        """Run the CLI's verdict job, exploring under this job's
        checkpoint (resumed when one is on disk)."""
        deadline = job.request["deadline"]
        if deadline is None:
            deadline = self.config.job_deadline
        ckpt_path = self._checkpoint_path(job.key)
        resume = load_checkpoint_or_quarantine(ckpt_path)
        job.resumed = resume is not None
        if job.resumed:
            with self._lock:
                self.counters["jobs_resumed"] += 1
        # On exhaustion the explorer saves a salvage checkpoint on its
        # way out; a resubmission after restart resumes from it.
        result = run_job(
            job.request,
            budget=RunBudget(deadline_seconds=deadline, token=job.token),
            checkpoint=CheckpointSink(
                ckpt_path, interval_seconds=self.config.checkpoint_seconds
            ),
            resume=resume,
            on_explored=lambda impl: self._post_progress(job, {
                "stage": "explored",
                "impl_states": impl.num_states,
                "resumed": job.resumed,
            }),
        )
        result.update(self._job_fields(job))
        return result

    # ------------------------------------------------------------------
    # delivery (back on the I/O loop thread)
    # ------------------------------------------------------------------
    def _deliver_worker_events(self) -> None:
        while self._progress:
            job_id, payload = self._progress.popleft()
            with self._lock:
                job = self._jobs_by_id.get(job_id)
                subscribers = list(job.subscribers) if job else []
            for conn_id in subscribers:
                conn = self._conns.get(conn_id)
                if conn is not None:
                    self._send(conn, (MSG_PROGRESS, job_id, payload))
        while self._completed:
            job, result = self._completed.popleft()
            with self._lock:
                subscribers = list(job.subscribers)
                self._jobs.pop(job.key, None)
                self._jobs_by_id.pop(job.job_id, None)
                if not subscribers:
                    # Nobody is listening (client gone): the decided
                    # result is already parked in the cache.
                    self.counters["results_parked"] += 1
            delivered = False
            for conn_id in subscribers:
                conn = self._conns.get(conn_id)
                if conn is not None:
                    conn.jobs.discard(job.job_id)
                    self._send(conn, (MSG_RESULT, job.job_id, result))
                    delivered = True
            if subscribers and not delivered:
                with self._lock:
                    self.counters["results_parked"] += 1

    def _send_heartbeats(self) -> None:
        now = time.monotonic()
        for conn in list(self._conns.values()):
            if (
                not conn.closing
                and now - conn.last_send >= self.config.heartbeat_seconds
            ):
                self._send(conn, (MSG_HEARTBEAT,))
