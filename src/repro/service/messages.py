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
``verify`` / ``explore``) and the verdict-affecting options
(``method``).
``max_states`` is excluded for the same reason checkpoints exclude it
-- a cache hit must never depend on how fast the answer was computed.
Requests are checked by :func:`repro.verify.job.build_request`, the
same check the CLI's ``lin`` / ``lockfree`` / ``verify`` run; the kinds
come from its :data:`~repro.verify.job.KINDS` table.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from ..lang.checkpoint import fingerprint
# ``build_request`` is re-exported: it is the daemon's request check.
from ..verify.job import build_request, request_program_config  # noqa: F401

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

def service_fingerprint(request: Dict[str, Any]) -> Dict[str, Any]:
    """The cache-identity of a request (see module docstring).

    Reuses the checkpoint fingerprint for the exploration identity and
    adds the property being checked.  Deliberately excluded: the
    resource caps (``max_states``, ``deadline``) -- neither can change a
    *decided* verdict, and only decided verdicts are ever cached.
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
