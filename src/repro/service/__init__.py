"""Verification as a service: daemon, socket transport, result cache.

The package turns the one-shot CLI pipelines into a long-lived service:

* :mod:`repro.service.channel` -- a TCP / Unix-domain socket transport
  for the RPX1 frame protocol (:mod:`repro.parallel.protocol`), with
  connect/read timeouts, a max-frame-size guard, and capped-backoff
  reconnection (:mod:`repro.util.retry`).
* :mod:`repro.service.cache` -- a crash-safe, fingerprint-keyed result
  cache: append-only CRC-framed index, atomic entry writes, corruption
  quarantine, LRU capping.
* :mod:`repro.service.daemon` -- the persistent daemon behind
  ``repro serve``: bounded job queue with backpressure, dedup of
  identical in-flight jobs, per-job budget slices, progress streaming,
  graceful SIGTERM checkpointing.
* :mod:`repro.service.client` -- the client behind ``repro submit``.

See docs/ROBUSTNESS.md ("The verification service") for the failure
model.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ["CacheEntry", "ResultCache"],
    "channel": [
        "ServiceError",
        "ServiceTimeout",
        "SocketFrameChannel",
        "parse_address",
    ],
    "client": ["ServiceClient", "SubmissionRejected", "submit_request"],
    "daemon": ["DaemonConfig", "VerificationDaemon"],
    "messages": [
        "build_request",
        "cache_key",
        "request_cache_key",
        "service_fingerprint",
    ],
})
