"""Crash-safe, fingerprint-keyed verdict/artifact cache.

Layout (under one cache directory)::

    index.log            append-only log of ("put"|"touch"|"evict", key,
                         meta) records, each one RPX1 frame
    entries/<key>.res    one RPX1 frame wrapping the cached result dict
    quarantine/          corrupt files moved aside, never deleted

Crash-safety discipline, matching the checkpoint machinery and the
RPX1 protocol:

* **Entries** are written to a temp file in the same directory, fsynced,
  then ``os.replace``d -- a crash mid-write leaves at most a stale temp
  file, never a half-entry under the live name.
* **Every byte on disk is CRC-framed.**  A torn append to ``index.log``
  (the one file that is *not* atomically replaced -- appends are what
  make it cheap) is detected by the frame decoder on load: the valid
  prefix is kept, the torn tail is dropped and the file truncated back
  to the prefix.  A corrupt entry file fails its CRC on read.
* **Corruption quarantines, never crashes.**  A bad entry is moved to
  ``quarantine/`` and reported as a miss, so the daemon recomputes and
  overwrites it; counters (``corrupt_entries``, ``torn_index_tails``)
  make the event observable.

Eviction is LRU over *use* (hits refresh recency, recorded as
``touch`` records so recency survives restarts), capped by
``max_entries``.  Only decided results should be cached -- the daemon
never stores UNKNOWN verdicts, so a cache hit is always a final answer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..parallel.protocol import ProtocolError, encode_frame, read_frame

#: Bumped whenever the on-disk layout changes.
CACHE_SCHEMA = "repro.service-cache/v2"

_REC_PUT = "put"
_REC_TOUCH = "touch"
_REC_EVICT = "evict"


@dataclass
class CacheEntry:
    """In-memory index record of one cached result."""

    key: str
    #: Payload size on disk (for observability; not an eviction axis).
    size_bytes: int = 0
    #: Monotonically increasing insertion stamp (restart-stable LRU).
    meta: Dict[str, Any] = field(default_factory=dict)


def _decode_file_frames(path: str, max_frame_bytes: int):
    """``(frames, valid_bytes, torn)`` for a file of RPX1 frames.

    Parses frame by frame so the valid prefix survives even when the
    tear sits right behind a good frame (a chunked
    :class:`FrameDecoder` would discard same-chunk frames when it
    raises); the first validation failure -- including a trailing
    partial frame -- stops the scan, and everything before it is the
    valid prefix.
    """
    frames = []
    valid_bytes = 0
    torn = False
    try:
        with open(path, "rb") as handle:
            while True:
                try:
                    frame = read_frame(handle, max_frame_bytes)
                except ProtocolError:
                    torn = True
                    break
                if frame is None:
                    break  # clean EOF at a frame boundary
                frames.append(frame)
                valid_bytes = handle.tell()
    except FileNotFoundError:
        return [], 0, False
    return frames, valid_bytes, torn


class ResultCache:
    """The on-disk cache (see module docstring).

    Not thread-safe by itself; the daemon serializes access through its
    job bookkeeping lock.  ``max_frame_bytes`` bounds both index
    records and entry payloads, so a corrupt length prefix cannot make
    a cache *load* allocate gigabytes either.
    """

    def __init__(
        self,
        directory: str,
        max_entries: int = 256,
        max_frame_bytes: int = 1 << 28,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = directory
        self.max_entries = max_entries
        self.max_frame_bytes = max_frame_bytes
        self.entries_dir = os.path.join(directory, "entries")
        self.quarantine_dir = os.path.join(directory, "quarantine")
        self.index_path = os.path.join(directory, "index.log")
        os.makedirs(self.entries_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        #: insertion-ordered {key: CacheEntry}; last = most recently used
        self._lru: Dict[str, CacheEntry] = {}
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
            "corrupt_entries": 0,
            "torn_index_tails": 0,
        }
        self._load_index()

    # ------------------------------------------------------------------
    # index
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        frames, valid_bytes, torn = _decode_file_frames(
            self.index_path, self.max_frame_bytes
        )
        if torn:
            # Keep the valid prefix, drop the torn tail: the records
            # past the tear were never acknowledged to anyone.
            self.counters["torn_index_tails"] += 1
            with open(self.index_path, "rb+") as handle:
                handle.truncate(valid_bytes)
        for frame in frames:
            if not isinstance(frame, tuple) or len(frame) != 3:
                continue  # future record kinds: skip, don't crash
            record, key, meta = frame
            if record == _REC_PUT:
                self._lru.pop(key, None)
                self._lru[key] = CacheEntry(
                    key=key,
                    size_bytes=int(meta.get("size_bytes", 0)),
                    meta=dict(meta),
                )
            elif record == _REC_TOUCH:
                entry = self._lru.pop(key, None)
                if entry is not None:
                    self._lru[key] = entry
            elif record == _REC_EVICT:
                self._lru.pop(key, None)
        # Drop index records whose entry file vanished (e.g. quarantined
        # by an earlier process that then crashed before logging).
        for key in [
            k for k in self._lru if not os.path.exists(self._entry_path(k))
        ]:
            del self._lru[key]
        self._maybe_compact(len(frames))

    def _append_index(self, record: str, key: str, meta: Dict[str, Any]) -> None:
        with open(self.index_path, "ab") as handle:
            handle.write(encode_frame((record, key, meta)))
            handle.flush()
            os.fsync(handle.fileno())

    def _maybe_compact(self, record_count: int) -> None:
        """Rewrite the log when it is mostly dead records (atomic)."""
        if record_count <= max(64, 4 * len(self._lru)):
            return
        tmp = f"{self.index_path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            for entry in self._lru.values():
                handle.write(encode_frame((_REC_PUT, entry.key, entry.meta)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.index_path)

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.entries_dir, f"{key}.res")

    def _quarantine(self, path: str) -> None:
        target = os.path.join(
            self.quarantine_dir, os.path.basename(path)
        )
        try:
            os.replace(path, target)
        except OSError:
            pass

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result for ``key``, or ``None``.

        A corrupt entry (CRC mismatch, truncation, wrong schema) is
        quarantined and reported as a miss -- the caller recomputes.
        """
        entry = self._lru.get(key)
        if entry is None:
            self.counters["misses"] += 1
            return None
        path = self._entry_path(key)
        frames, _valid, torn = _decode_file_frames(path, self.max_frame_bytes)
        payload = frames[0] if frames else None
        ok = (
            not torn
            and len(frames) == 1
            and isinstance(payload, dict)
            and payload.get("schema") == CACHE_SCHEMA
            and payload.get("key") == key
        )
        if not ok:
            self.counters["corrupt_entries"] += 1
            self.counters["misses"] += 1
            self._quarantine(path)
            del self._lru[key]
            self._append_index(_REC_EVICT, key, {})
            return None
        self.counters["hits"] += 1
        # refresh recency, durably
        moved = self._lru.pop(key)
        self._lru[key] = moved
        self._append_index(_REC_TOUCH, key, {})
        return payload["result"]

    def put(self, key: str, result: Dict[str, Any]) -> None:
        """Atomically store ``result`` under ``key`` and cap the LRU."""
        payload = {"schema": CACHE_SCHEMA, "key": key, "result": result}
        frame = encode_frame(payload)
        path = self._entry_path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        meta = {"size_bytes": len(frame)}
        self._lru.pop(key, None)
        self._lru[key] = CacheEntry(key=key, size_bytes=len(frame), meta=meta)
        self.counters["puts"] += 1
        self._append_index(_REC_PUT, key, meta)
        while len(self._lru) > self.max_entries:
            oldest = next(iter(self._lru))
            del self._lru[oldest]
            self.counters["evictions"] += 1
            try:
                os.remove(self._entry_path(oldest))
            except OSError:
                pass
            self._append_index(_REC_EVICT, oldest, {})

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: str) -> bool:
        return key in self._lru

    def keys(self):
        return list(self._lru)

    def stats(self) -> Dict[str, int]:
        out = dict(self.counters)
        out["entries"] = len(self._lru)
        return out
