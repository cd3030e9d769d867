"""Fault-tolerant sharded exploration (supervisor / worker processes).

Public surface:

* :func:`parallel_explore` -- drop-in parallel counterpart of
  :func:`repro.lang.client.explore` (byte-identical frozen result).
* :class:`ParallelConfig` -- worker count, shard size, failure policy.
* :class:`FaultPlan` -- injected failures for testing the policy.

Serial runs never import this package: :func:`maybe_parallel_explore`
(defined next to ``explore``) loads the supervisor only for
``workers >= 1``.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "faults": ["Fault", "FaultPlan", "FaultPlanError"],
    "protocol": ["FrameDecoder", "ProtocolError", "read_frame", "write_frame"],
    "supervisor": [
        "ParallelConfig",
        "Supervisor",
        "maybe_parallel_explore",
        "parallel_explore",
    ],
})
