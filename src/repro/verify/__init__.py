"""Verification pipelines: the two methods of Fig. 1.

* :func:`check_linearizability` -- Theorem 5.3 (quotient + refinement)
* :func:`check_lock_freedom_auto` -- Theorem 5.9 (object vs quotient,
  divergence-sensitive)
* :func:`check_lock_freedom_abstract` -- Theorem 5.8 (object vs
  abstract program, divergence-sensitive)
* :func:`check_linearizability_reachability` -- the independent second
  verdict engine (BEEH reduction to state reachability)

:mod:`repro.verify.job` runs them (and obstruction-freedom) for
``lin``, ``lockfree``, ``verify`` and the verification daemon: one
exploration, one dispatch, one report.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "linearizability": [
        "LinearizabilityResult",
        "check_linearizability",
    ],
    "reachability": [
        "ReachabilityResult",
        "ReachabilitySearch",
        "check_linearizability_reachability",
        "reachability_search",
    ],
    "lockfree": [
        "AbstractLockFreedomResult",
        "LockFreedomResult",
        "check_lock_freedom_abstract",
        "check_lock_freedom_auto",
    ],
    "obstruction": [
        "ObstructionFreedomResult",
        "check_obstruction_freedom",
        "solo_tau_cycle_states",
        "transition_thread",
    ],
})
