"""The paper's 14 benchmark concurrent data structures (Table II).

Every algorithm is modeled from its original publication in the
``repro.lang`` DSL; buggy variants (rows 3 and 9-1) are kept alongside
the correct ones so the paper's bug hunts can be reproduced.  The
:mod:`registry` ties each model to its specification, workload,
expected verdicts and (where the paper builds one) abstract program;
it imports a model's module only when that model is built.
"""

from ..util.lazy import lazy_exports

_MODELS = (
    "ccas",
    "dglm_queue",
    "fine_list",
    "hm_list",
    "hsy_stack",
    "hw_queue",
    "lazy_list",
    "ms_queue",
    "newcas",
    "optimistic_list",
    "rdcss",
    "treiber",
    "treiber_hp",
)

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "registry": [
        "BENCHMARKS",
        "Benchmark",
        "all_benchmarks",
        "get",
        "ccas_workload",
        "newcas_workload",
        "queue_workload",
        "rdcss_workload",
        "set_workload",
        "set_workload_with_contains",
        "stack_workload",
    ],
    **{model: [model] for model in _MODELS},
})
