"""Differential-testing subsystem: oracles, generators, laws, fuzzing.

The safety net for the verification engine: naive reference semantics
written straight from the paper's definitions (:mod:`.oracles`), seeded
random LTS / client-program generators with Hypothesis strategies
(:mod:`.generators`), metamorphic laws of the engine's own algebra
(:mod:`.laws`), and the differential fuzz harness behind ``python -m
repro fuzz`` (:mod:`.differential`).
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "oracles": [
        "bounded_traces",
        "branching_bisimulation_relation",
        "divergence_sensitive_branching_relation",
        "diverges_within",
        "is_trace_of",
        "relation_agrees_with_partition",
        "strong_bisimulation_relation",
        "tau_cycle_states_naive",
        "tau_reachable",
        "weak_bisimulation_relation",
        "weak_trace_inclusion",
    ],
    "generators": [
        "LtsShape",
        "ProgramShape",
        "explore_random_program",
        "lts_strategy",
        "program_strategy",
        "random_lts",
        "random_program",
        "tau_heavy_lts_strategy",
    ],
    "laws": ["ALL_LAWS", "check_laws"],
    "differential": [
        "Disagreement",
        "FuzzCase",
        "FuzzReport",
        "MUTATIONS",
        "check_budget_governance",
        "check_equivalences",
        "check_explanations",
        "check_instance",
        "check_seeded_refinement",
        "check_step_cache",
        "check_trace_refinement",
        "check_verdict_engines",
        "explore_without_step_cache",
        "onthefly_disagreements",
        "parity_seed",
        "quotient_refinement_verdict",
        "run_fuzz",
        "shrink_lts",
        "verdict_engine_disagreements",
    ],
})
