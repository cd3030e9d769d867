"""Core verification engine: LTSs, equivalences, quotients, refinement.

This subpackage is the reproduction's substitute for the CADP toolbox:
everything the paper runs on BCG graphs (branching-bisimulation
minimization, weak bisimulation, trace refinement with diagnostics,
divergence detection) is implemented here on plain Python LTSs.
"""

from .lts import (
    LTS,
    LTSBuilder,
    TAU,
    TAU_ID,
    AnyLTS,
    FrozenLTS,
    disjoint_union,
    ensure_frozen,
    make_lts,
    to_dot,
)
from .partition import (
    BlockMap,
    RefinementNotConverged,
    RefinementRun,
    blocks_of,
    is_refinement,
    normalize,
    num_blocks,
    partition_from_key,
    refine_step,
    refine_to_fixpoint,
    refine_with_status,
    same_partition,
)
from .reduce import ReducedLTS, lift_partition, reduce_lts
from .splitter import branching_splitter, strong_splitter, weak_splitter
from .branching import (
    Comparison,
    DIVERGENCE_MARK,
    branching_partition,
    compare_branching,
)
from .strong import compare_strong, strong_partition
from .weak import compare_weak, tau_closures, weak_partition
from .quotient import Quotient, quotient_lts
from .divergence import (
    Lasso,
    Step,
    divergent_states,
    find_divergence_lasso,
    tau_cycle_states,
)
from .traces import (
    RefinementResult,
    language_partition,
    state_tau_closures,
    trace_equivalent,
    trace_partition,
    trace_refines,
)
from .aut import dumps_aut, loads_aut, read_aut, write_aut
from .diagnostics import Explanation, explain_inequivalence, explain_states
from .ktrace import (
    KTraceHierarchy,
    TauWitnesses,
    ktrace_hierarchy,
    ktrace_refine,
    max_trace_partition,
    tau_witnesses,
)

__all__ = [
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
    "ReducedLTS",
    "lift_partition",
    "reduce_lts",
    "BlockMap",
    "RefinementNotConverged",
    "RefinementRun",
    "blocks_of",
    "is_refinement",
    "normalize",
    "num_blocks",
    "partition_from_key",
    "refine_step",
    "refine_to_fixpoint",
    "refine_with_status",
    "same_partition",
    "branching_splitter",
    "strong_splitter",
    "weak_splitter",
    "Comparison",
    "DIVERGENCE_MARK",
    "branching_partition",
    "compare_branching",
    "compare_strong",
    "strong_partition",
    "compare_weak",
    "tau_closures",
    "weak_partition",
    "Quotient",
    "quotient_lts",
    "Lasso",
    "Step",
    "divergent_states",
    "find_divergence_lasso",
    "tau_cycle_states",
    "RefinementResult",
    "language_partition",
    "state_tau_closures",
    "trace_equivalent",
    "trace_partition",
    "trace_refines",
    "dumps_aut",
    "loads_aut",
    "read_aut",
    "write_aut",
    "Explanation",
    "explain_inequivalence",
    "explain_states",
    "KTraceHierarchy",
    "TauWitnesses",
    "ktrace_hierarchy",
    "ktrace_refine",
    "max_trace_partition",
    "tau_witnesses",
]
