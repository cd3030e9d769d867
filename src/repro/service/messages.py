"""Service-level message vocabulary, request normalization, cache keys.

The wire format is the RPX1 frame protocol unchanged
(:mod:`repro.parallel.protocol`); this module defines what rides
*inside* the frames between a client and the daemon -- plain tuples
keyed by a kind tag, exactly like the supervisor/worker messages -- and
how a request maps to the fingerprint that keys the result cache.

Cache keys build on the fingerprints the checkpoint machinery already
computes (:func:`repro.lang.checkpoint.fingerprint`): two submissions
are *the same job* iff they agree on the object program, the client
bounds/workload, the requested property (``lin`` / ``lockfree`` /
``explore``) and the verdict-affecting options (``method``).
``max_states`` is excluded for the same reason checkpoints exclude it,
and the reduce toggle is excluded because it is proven
verdict-preserving (the differential suite exists to keep it that way)
-- a cache hit must never depend on how fast the answer was computed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from ..lang import ClientConfig
from ..lang.checkpoint import fingerprint
from ..objects import get

# ----------------------------------------------------------------------
# client -> daemon
# ----------------------------------------------------------------------
MSG_SUBMIT = "submit"      # (MSG_SUBMIT, request_dict)
MSG_STATUS = "status"      # (MSG_STATUS,)
MSG_PING = "ping"          # (MSG_PING,)

# ----------------------------------------------------------------------
# daemon -> client
# ----------------------------------------------------------------------
MSG_ACCEPTED = "accepted"    # (MSG_ACCEPTED, job_id, meta_dict)
MSG_REJECTED = "rejected"    # (MSG_REJECTED, reason_str)
MSG_PROGRESS = "progress"    # (MSG_PROGRESS, job_id, progress_dict)
MSG_RESULT = "result"        # (MSG_RESULT, job_id, result_dict)
MSG_HEARTBEAT = "heartbeat"  # (MSG_HEARTBEAT,) -- idle-connection keepalive
MSG_STATUS_REPLY = "status-reply"  # (MSG_STATUS_REPLY, status_dict)
MSG_PONG = "pong"            # (MSG_PONG,)
MSG_CLOSING = "closing"      # (MSG_CLOSING, reason_str) -- graceful shutdown

#: Request kinds the job queue accepts.
KINDS = ("lin", "lockfree", "explore")


def build_request(
    kind: str,
    key: str,
    threads: int = 2,
    ops: int = 2,
    values: int = 2,
    max_states: Optional[int] = None,
    method: Optional[str] = None,
    reduce: bool = True,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Normalize one verification request into its canonical dict.

    Raises ``ValueError`` for unknown kinds/objects and ``TypeError``
    for unknown fields -- the daemon calls this on every received
    request, so a malformed submission is a per-connection error, never
    a daemon crash.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r} (expected {KINDS})")
    try:
        get(key)
    except KeyError:
        raise ValueError(f"unknown benchmark object {key!r}")
    if threads < 1 or ops < 1 or values < 1:
        raise ValueError("threads/ops/values must all be >= 1")
    if method is None:
        method = "quotient" if kind == "lin" else (
            "union" if kind == "lockfree" else None
        )
    if kind == "lin" and method not in ("quotient", "reachability", "both"):
        raise ValueError(f"unknown lin method {method!r}")
    if kind == "lockfree" and method not in ("union", "tau-cycle"):
        raise ValueError(f"unknown lockfree method {method!r}")
    return {
        "kind": kind,
        "key": key,
        "threads": int(threads),
        "ops": int(ops),
        "values": int(values),
        "max_states": max_states,
        "method": method,
        "reduce": bool(reduce),
        "deadline": deadline,
    }


def request_program_config(request: Dict[str, Any]) -> Tuple[Any, Any, Any]:
    """``(bench, program, config)`` for a normalized request."""
    bench = get(request["key"])
    workload = bench.default_workload(request["values"])
    program = bench.build(request["threads"])
    config = ClientConfig(
        num_threads=request["threads"],
        ops_per_thread=request["ops"],
        workload=workload,
        max_states=request["max_states"],
    )
    return bench, program, config


def service_fingerprint(request: Dict[str, Any]) -> Dict[str, Any]:
    """The cache-identity of a request (see module docstring).

    Reuses the checkpoint fingerprint for the exploration identity and
    adds the property being checked.  Deliberately excluded: resource
    caps (``max_states``, ``deadline``) and the ``reduce`` performance
    toggle -- none of them can change a *decided* verdict, and only
    decided verdicts are ever cached.
    """
    _bench, program, config = request_program_config(request)
    return {
        "schema": "repro.service-fingerprint/v1",
        "kind": request["kind"],
        "method": request["method"],
        "impl": fingerprint(program, config),
    }


def _canonical(value: Any) -> Any:
    """Recursively JSON-able form with deterministic ordering."""
    if isinstance(value, dict):
        return {
            str(k): _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cache_key(fingerprint_dict: Dict[str, Any]) -> str:
    """Stable hex digest of a (service) fingerprint dict.

    The digest doubles as the entry's file name, so it must be stable
    across processes and Python hash randomization -- hence canonical
    JSON + SHA-256, never ``hash()``.
    """
    text = json.dumps(_canonical(fingerprint_dict), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def request_cache_key(request: Dict[str, Any]) -> str:
    """Convenience: the cache key of a normalized request."""
    return cache_key(service_fingerprint(request))
