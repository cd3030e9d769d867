"""Length-prefixed, checksummed pipe protocol for supervisor <-> worker.

Every message is one *frame*::

    +--------+----------------+--------------+------------------+
    | magic  | payload length | CRC32(payload) | pickled payload |
    | 4 bytes| 4 bytes (!I)   | 4 bytes (!I)   | length bytes    |
    +--------+----------------+--------------+------------------+

The payload is a plain tuple pickled with the highest protocol -- the
same serialization the checkpoint format uses for state keys, so a work
unit on the wire is exactly a checkpointed frontier slice.  The CRC is
verified on receipt; a mismatch (or a bad magic, or an absurd length)
raises :class:`ProtocolError`, which the supervisor treats as a worker
fault: the worker is killed and its shard is requeued.  That is what
makes payload corruption a *recoverable* failure instead of a poisoned
merge -- the fault-injection suite corrupts frames on purpose and
asserts the run still converges to the serial result.

Only a *trusted* reader -- the supervisor and its forked workers, whose
state keys hold DSL objects such as ``Ref`` -- unpickles arbitrary
payloads.  Every other reader (the service daemon's client sockets,
:class:`~repro.service.channel.SocketFrameChannel`, the result cache)
decodes plain data only: dicts, lists, tuples, sets, strings, bytes,
numbers, booleans and ``None``.  A payload that names any global -- a
class, or a function such as ``exec`` that a crafted ``__reduce__``
would call -- raises :class:`ProtocolError` before anything is called.

Two read paths exist because the two sides block differently:

* workers own their pipe and just block -- :func:`read_frame`;
* the supervisor multiplexes many pipes with ``selectors`` and gets
  partial reads -- :class:`FrameDecoder` buffers bytes and yields
  complete messages.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, BinaryIO, List, Optional

#: Protocol identifier; bumped whenever the frame layout changes.
MAGIC = b"RPX1"

_HEADER = struct.Struct("!4sII")

#: Default refusal threshold for a frame's claimed payload size (a
#: corrupt length field must not make the receiver allocate gigabytes).
#: Both read paths take a ``max_frame_bytes`` override: the service
#: daemon runs its client-facing sockets with a much smaller cap, since
#: a verification *request* is tiny while a supervisor merging shard
#: results legitimately sees multi-megabyte frames.
MAX_FRAME_BYTES = 1 << 30


class ProtocolError(Exception):
    """A frame failed validation (magic, length bound, or checksum)."""


def _check_length(length: int, max_frame_bytes: int) -> None:
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame claims {length} payload bytes "
            f"(cap {max_frame_bytes}); corrupt length prefix?"
        )


def encode_frame(message: Any, corrupt: bool = False) -> bytes:
    """Serialize ``message`` into one frame.

    ``corrupt=True`` flips payload bytes *after* the checksum is
    computed -- the fault-injection hook used to prove the receiver
    rejects tampered payloads.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload))
    if corrupt:
        payload = bytes(b ^ 0xFF for b in payload[:8]) + payload[8:]
    return header + payload


def write_frame(stream: BinaryIO, message: Any, corrupt: bool = False) -> None:
    """Write one frame to a blocking binary stream and flush it."""
    stream.write(encode_frame(message, corrupt=corrupt))
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"EOF inside a frame ({count - remaining} of {count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _PlainDataUnpickler(pickle.Unpickler):
    """Rebuilds plain data only: every global is refused."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"global {module}.{name} refused")


def _decode_payload(header: bytes, payload: bytes, trusted: bool) -> Any:
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if zlib.crc32(payload) != crc:
        raise ProtocolError("payload checksum mismatch")
    try:
        if trusted:
            return pickle.loads(payload)
        return _PlainDataUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        raise ProtocolError(f"payload does not unpickle: {exc}") from exc


def read_frame(
    stream: BinaryIO,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    trusted: bool = False,
) -> Optional[Any]:
    """Blocking read of one frame; ``None`` on clean EOF.

    A length prefix above ``max_frame_bytes`` raises
    :class:`ProtocolError` *before* any payload allocation, so a
    corrupt header can never OOM the receiver.  Only a ``trusted``
    read unpickles globals (see the module docstring).
    """
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    magic, length, _crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    _check_length(length, max_frame_bytes)
    payload = _read_exact(stream, length)
    if payload is None and length:
        raise ProtocolError("EOF inside a frame")
    return _decode_payload(header, payload or b"", trusted)


class FrameDecoder:
    """Incremental frame parser for non-blocking reads.

    Feed it whatever bytes the pipe produced; it returns every message
    completed so far and buffers the rest.  Validation failures raise
    :class:`ProtocolError` and *poison* the decoder: once framing is
    lost there is no way to resynchronize a length-prefixed stream, so
    every later :meth:`feed` raises again instead of misparsing
    payload bytes as headers.  The owner of the stream (supervisor,
    service daemon) kills the connection and, for workers, requeues the
    in-flight shard.

    ``max_frame_bytes`` caps the *claimed* payload length; an oversized
    prefix raises before any allocation, closing the
    OOM-on-corrupt-header hole for pipe workers and sockets alike.
    Only a ``trusted`` decoder unpickles globals (see the module
    docstring).
    """

    __slots__ = ("_buffer", "_max_frame_bytes", "_poisoned", "_trusted")

    def __init__(
        self, max_frame_bytes: int = MAX_FRAME_BYTES, trusted: bool = False
    ) -> None:
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes
        self._poisoned: Optional[str] = None
        self._trusted = trusted

    @property
    def poisoned(self) -> bool:
        """True once any frame failed validation (no resync possible)."""
        return self._poisoned is not None

    def _poison(self, exc: ProtocolError) -> ProtocolError:
        self._poisoned = str(exc)
        return exc

    def feed(self, data: bytes) -> List[Any]:
        if self._poisoned is not None:
            raise ProtocolError(f"decoder poisoned: {self._poisoned}")
        self._buffer.extend(data)
        messages: List[Any] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            header = bytes(self._buffer[:_HEADER.size])
            magic, length, _crc = _HEADER.unpack(header)
            if magic != MAGIC:
                raise self._poison(ProtocolError(f"bad magic {magic!r}"))
            try:
                _check_length(length, self._max_frame_bytes)
            except ProtocolError as exc:
                raise self._poison(exc)
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                messages.append(_decode_payload(header, payload, self._trusted))
            except ProtocolError as exc:
                raise self._poison(exc)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)


# ----------------------------------------------------------------------
# message constructors (tuples keyed by a kind tag)
# ----------------------------------------------------------------------
# supervisor -> worker
MSG_SHARD = "shard"        # (MSG_SHARD, shard_id, keys, ChildAllowance)
MSG_STOP = "stop"          # (MSG_STOP,)

# worker -> supervisor
MSG_HELLO = "hello"        # (MSG_HELLO, worker_index, pid)
MSG_PROGRESS = "progress"  # (MSG_PROGRESS, worker_index, shard_id, done)
MSG_RESULT = "result"      # (MSG_RESULT, worker_index, shard_id,
#                             [(key, edges), ...], busy_us)
MSG_EXHAUSTED = "exhausted"  # (MSG_EXHAUSTED, worker_index, shard_id, dict)
MSG_ERROR = "error"        # (MSG_ERROR, worker_index, shard_id, traceback)
