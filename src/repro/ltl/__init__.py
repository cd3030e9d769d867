"""Next-free LTL model checking for progress properties.

``check_ltl(lts, formula)`` decides whether every execution of an
object system satisfies an action-based next-free LTL formula, via the
GPVW tableau, counter degeneralization and nested-DFS emptiness.
:mod:`repro.ltl.progress` packages the paper's progress properties.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "syntax": [
        "AP",
        "FALSE",
        "TRUE",
        "And",
        "Finally",
        "Globally",
        "Implies",
        "Not",
        "Or",
        "Release",
        "Until",
        "negation_normal_form",
        "parse",
        "render",
    ],
    "buchi": [
        "Buchi",
        "GeneralizedBuchi",
        "degeneralize",
        "gpvw",
        "ltl_to_buchi",
    ],
    "product": [
        "DEADLOCK",
        "LtlResult",
        "check_ltl",
        "stutter_complete",
    ],
    "progress": [
        "CALL",
        "RET",
        "TERMINATED",
        "check_lock_freedom_ltl",
        "lock_freedom_formula",
        "thread_response_formula",
    ],
})
