"""Socket transport for the RPX1 frame protocol.

The supervisor/worker protocol (:mod:`repro.parallel.protocol`) was
built for pipes between a parent and its forked children; this module
carries the *same frames* over TCP or Unix-domain sockets so the
verification pipelines can sit behind a long-lived daemon.  Nothing
about the frame layout changes -- a :class:`SocketFrameChannel` is a
socket plus a :class:`~repro.parallel.protocol.FrameDecoder`, with the
failure handling a network transport needs on top:

* **Timeouts everywhere.**  Connect and receive both take deadlines; a
  stalled peer surfaces as :class:`ServiceTimeout`, never a hung
  client.
* **Capped-backoff reconnect.**  :meth:`SocketFrameChannel.connect`
  retries refused/absent endpoints under the same
  :class:`~repro.util.retry.BackoffPolicy` the supervisor uses to
  requeue crashed shards (with jitter, since many clients may race one
  restarting daemon).
* **Frame-size guard.**  The decoder is created with a small
  ``max_frame_bytes`` -- service messages are tiny -- so a corrupt or
  hostile length prefix is refused before allocation, and the poisoned
  decoder makes the connection unusable rather than misparsed.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, List, Optional, Tuple, Union

from ..parallel.protocol import FrameDecoder, ProtocolError, encode_frame
from ..util.retry import BackoffPolicy, RetriesExhausted, retry_call

#: Service frames are requests/verdicts/progress dicts -- kilobytes at
#: the very largest (counterexample traces); far below the 1 GiB pipe
#: default.  16 MiB leaves room for large counterexamples while still
#: refusing absurd prefixes immediately.
SERVICE_MAX_FRAME_BYTES = 16 << 20

#: Reconnects mirror the supervisor's requeue backoff but add jitter:
#: unlike the supervisor (one process retrying its own children), many
#: clients may be hammering one restarting daemon at once.
RECONNECT_POLICY = BackoffPolicy(base=0.05, cap=2.0, jitter=0.5)

Address = Union[str, Tuple[str, int]]


class ServiceError(Exception):
    """The service connection failed (refused, reset, protocol fault)."""


class ServiceTimeout(ServiceError):
    """A connect or receive deadline expired."""


def parse_address(spec: str) -> Tuple[str, Address]:
    """``("unix", path)`` or ``("tcp", (host, port))`` for a CLI spec.

    ``HOST:PORT`` (with a numeric port) means TCP; anything else is a
    Unix-domain socket path.  ``:PORT`` binds/connects on localhost.
    """
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        if port.isdigit():
            return "tcp", (host or "127.0.0.1", int(port))
    return "unix", spec


def _new_socket(family: str) -> socket.socket:
    if family == "unix":
        return socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    return socket.socket(socket.AF_INET, socket.SOCK_STREAM)


def listen_socket(spec: str, backlog: int = 16) -> socket.socket:
    """A bound, listening socket for ``spec`` (daemon side).

    For Unix-domain sockets a stale path from a crashed daemon is
    unlinked first -- the standard recover-after-SIGKILL move.
    """
    family, address = parse_address(spec)
    sock = _new_socket(family)
    if family == "unix":
        try:
            os.unlink(address)  # stale socket from a killed daemon
        except FileNotFoundError:
            pass
    else:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(address)
    sock.listen(backlog)
    return sock


class SocketFrameChannel:
    """One RPX1 frame stream over a connected socket.

    Owns the socket; close it with :meth:`close` (or use as a context
    manager).  ``recv`` returns one decoded message, ``None`` on clean
    EOF (peer closed between frames), raises :class:`ServiceError` on
    protocol faults and :class:`ServiceTimeout` on deadline expiry.
    Frames already decoded are buffered, so a ``recv`` after EOF still
    drains them.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame_bytes: int = SERVICE_MAX_FRAME_BYTES,
    ) -> None:
        self.sock = sock
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._inbox: List[Any] = []
        self._eof = False

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def connect(
        cls,
        spec: str,
        timeout: float = 5.0,
        attempts: int = 1,
        policy: BackoffPolicy = RECONNECT_POLICY,
        max_frame_bytes: int = SERVICE_MAX_FRAME_BYTES,
        sleep=None,
    ) -> "SocketFrameChannel":
        """Connect to a daemon at ``spec``, retrying with capped backoff.

        ``attempts`` > 1 makes refused/absent endpoints retryable --
        the client's reconnect path after a daemon restart.  Raises
        :class:`ServiceTimeout` if a single connect exceeds ``timeout``
        and :class:`ServiceError` once every attempt is spent.
        """
        family, address = parse_address(spec)

        def _connect_once() -> socket.socket:
            sock = _new_socket(family)
            sock.settimeout(timeout)
            try:
                sock.connect(address)
            except BaseException:
                sock.close()
                raise
            return sock

        kwargs = {} if sleep is None else {"sleep": sleep}
        try:
            sock = retry_call(
                _connect_once,
                attempts=attempts,
                policy=policy,
                retry_on=(OSError,),  # refused, absent path, timeout
                **kwargs,
            )
        except RetriesExhausted as exc:
            if isinstance(exc.last, socket.timeout):
                raise ServiceTimeout(
                    f"connect to {spec} timed out "
                    f"({exc.attempts} attempt(s))"
                ) from exc
            raise ServiceError(
                f"cannot connect to {spec}: {exc.last} "
                f"({exc.attempts} attempt(s))"
            ) from exc
        return cls(sock, max_frame_bytes=max_frame_bytes)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SocketFrameChannel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- I/O -----------------------------------------------------------
    def send(self, message: Any) -> None:
        """Write one frame (blocking; service frames are small)."""
        try:
            self.sock.sendall(encode_frame(message))
        except socket.timeout as exc:
            raise ServiceTimeout("send timed out") from exc
        except OSError as exc:
            raise ServiceError(f"send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> Optional[Any]:
        """One decoded message; ``None`` on clean EOF.

        ``timeout`` bounds the *whole* wait for the next frame: the
        deadline is fixed up front and each underlying ``recv`` gets
        only the remainder, so a trickling peer cannot stretch one
        logical wait into many timeouts' worth of blocking.

        A :class:`ServiceTimeout` is **recoverable**: bytes of a
        partially received frame (a split header included) stay
        buffered in the decoder, and the next ``recv`` resumes exactly
        where the stream left off.  Timeouts never desynchronize
        framing -- only genuine protocol faults (bad magic, length,
        CRC) poison the decoder, after which the channel is dead by
        design.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._inbox:
            if self._eof:
                return None
            if deadline is None:
                self.sock.settimeout(None)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeout("receive timed out")
                self.sock.settimeout(remaining)
            try:
                data = self.sock.recv(1 << 16)
            except socket.timeout as exc:
                # Partial-frame bytes remain buffered in the decoder;
                # the caller may retry recv() and resume mid-frame.
                raise ServiceTimeout("receive timed out") from exc
            except OSError as exc:
                raise ServiceError(f"receive failed: {exc}") from exc
            if not data:
                self._eof = True
                if self._decoder.pending_bytes:
                    raise ServiceError("connection closed mid-frame")
                return None
            try:
                self._inbox.extend(self._decoder.feed(data))
            except ProtocolError as exc:
                raise ServiceError(f"protocol fault: {exc}") from exc
        return self._inbox.pop(0)

    def recv_until(self, kinds: Tuple[str, ...], timeout: Optional[float],
                   on_other=None) -> Any:
        """The next message whose tag is in ``kinds``.

        Messages with other tags (progress, heartbeats) are passed to
        ``on_other`` when given, else dropped.  Raises
        :class:`ServiceError` on EOF before a match.
        """
        while True:
            message = self.recv(timeout=timeout)
            if message is None:
                raise ServiceError(
                    f"connection closed while waiting for {kinds}"
                )
            tag = message[0] if isinstance(message, tuple) and message else None
            if tag in kinds:
                return message
            if on_other is not None:
                on_other(message)
