"""Core verification engine: LTSs, equivalences, quotients, refinement.

This subpackage is the reproduction's substitute for the CADP toolbox:
everything the paper runs on BCG graphs (branching-bisimulation
minimization, weak bisimulation, trace refinement with diagnostics,
divergence detection) is implemented here on plain Python LTSs.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "lts": [
        "LTS",
        "LTSBuilder",
        "TAU",
        "TAU_ID",
        "AnyLTS",
        "FrozenLTS",
        "disjoint_union",
        "ensure_frozen",
        "make_lts",
        "to_dot",
    ],
    "reduce": ["ReducedLTS", "lift_partition", "reduce_lts"],
    "partition": [
        "BlockMap",
        "is_refinement",
        "normalize",
        "num_blocks",
        "partition_from_key",
        "refine_step",
        "same_partition",
    ],
    "splitter": ["branching_splitter", "strong_splitter", "weak_splitter"],
    "branching": [
        "Comparison",
        "DIVERGENCE_MARK",
        "branching_partition",
        "compare_branching",
    ],
    "strong": ["compare_strong", "strong_partition"],
    "weak": ["compare_weak", "tau_closures", "weak_partition"],
    "quotient": ["Quotient", "quotient_lts"],
    "divergence": [
        "Lasso",
        "Step",
        "divergent_states",
        "find_divergence_lasso",
        "tau_cycle_states",
    ],
    "traces": [
        "RefinementResult",
        "language_partition",
        "trace_equivalent",
        "trace_partition",
        "trace_refines",
    ],
    "aut": ["dumps_aut", "loads_aut", "read_aut", "write_aut"],
    "diagnostics": ["Explanation", "explain_inequivalence", "explain_states"],
    "ktrace": [
        "KTraceHierarchy",
        "TauWitnesses",
        "ktrace_hierarchy",
        "ktrace_refine",
        "max_trace_partition",
        "tau_witnesses",
    ],
})
