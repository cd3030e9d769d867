"""Metamorphic laws of the equivalence engine.

Each law states a theorem of the paper (or a structural invariance any
correct implementation must satisfy) as a check on the *engine's own
outputs* -- no oracle involved.  A broken engine rarely breaks just one
answer; it breaks the algebra relating its answers, and these laws are
cheap enough to run on every fuzzing instance:

* the quotient is branching-bisimilar to its source (Theorem 5.2) and
  quotienting is idempotent;
* quotients have no silent cycles (Lemma 5.7);
* the equivalences are ordered: strong refines divergence-sensitive
  branching refines branching refines weak (Section VII);
* partitions are invariant under bijective relabeling of visible
  actions and under disjoint union with a copy of the system.

Every law returns ``None`` when it holds and a human-readable violation
message otherwise, so the differential harness can treat laws and
engine-vs-oracle disagreements uniformly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core import (
    FrozenLTS,
    branching_partition,
    compare_branching,
    disjoint_union,
    is_refinement,
    quotient_lts,
    same_partition,
    strong_partition,
    tau_cycle_states,
    trace_refines,
    weak_partition,
)
from ..core.lts import TAU

Law = Callable[[FrozenLTS], Optional[str]]


def law_quotient_is_branching_bisimilar(lts: FrozenLTS) -> Optional[str]:
    """Theorem 5.2: ``lts`` and its branching quotient are bisimilar."""
    quotient = quotient_lts(lts, branching_partition(lts))
    if not compare_branching(lts, quotient.lts).equivalent:
        return "quotient is not branching-bisimilar to its source"
    return None


def law_quotient_is_idempotent(lts: FrozenLTS) -> Optional[str]:
    """Quotienting a quotient must be the identity (up to isomorphism)."""
    first = quotient_lts(lts, branching_partition(lts))
    second = quotient_lts(first.lts, branching_partition(first.lts))
    if first.lts.num_states != second.lts.num_states:
        return (
            f"quotient not idempotent: {first.lts.num_states} -> "
            f"{second.lts.num_states} states"
        )
    if first.lts.num_transitions != second.lts.num_transitions:
        return (
            f"quotient not idempotent: {first.lts.num_transitions} -> "
            f"{second.lts.num_transitions} transitions"
        )
    return None


def law_quotient_has_no_tau_cycles(lts: FrozenLTS) -> Optional[str]:
    """Lemma 5.7: branching quotients are silent-cycle free."""
    quotient = quotient_lts(lts, branching_partition(lts))
    cyclic = tau_cycle_states(quotient.lts)
    if cyclic:
        return f"quotient has a tau-cycle through states {cyclic}"
    return None


def law_quotient_preserves_traces(lts: FrozenLTS) -> Optional[str]:
    """Theorem 5.2 corollary: source and quotient are trace-equivalent."""
    quotient = quotient_lts(lts, branching_partition(lts))
    if not trace_refines(lts, quotient.lts).holds:
        return "source has a trace its quotient lacks"
    if not trace_refines(quotient.lts, lts).holds:
        return "quotient has a trace its source lacks"
    return None


def law_equivalences_are_ordered(lts: FrozenLTS) -> Optional[str]:
    """strong <= branching-div <= branching <= weak (as refinements)."""
    strong = strong_partition(lts)
    branching = branching_partition(lts)
    branching_div = branching_partition(lts, divergence=True)
    weak = weak_partition(lts)
    if not is_refinement(strong, branching_div):
        return "strong bisimilarity does not refine the divergence-sensitive partition"
    if not is_refinement(branching_div, branching):
        return "divergence-sensitive partition does not refine branching"
    if not is_refinement(branching, weak):
        return "branching bisimilarity does not refine weak"
    return None


def law_relabeling_invariance(lts: FrozenLTS) -> Optional[str]:
    """Partitions only depend on the *identity* of visible labels.

    Applying an injective renaming of the visible alphabet (tau stays
    tau) must leave every partition unchanged.
    """
    mapping = {
        label: ("renamed", label)
        for label in lts.action_labels
        if label != TAU
    }
    renamed = lts.relabel(lambda label: mapping.get(label, label))
    for name, partition_fn in (
        ("strong", strong_partition),
        ("branching", branching_partition),
        ("weak", weak_partition),
        ("branching-div", lambda l: branching_partition(l, divergence=True)),
    ):
        if not same_partition(partition_fn(lts), partition_fn(renamed)):
            return f"{name} partition changed under bijective relabeling"
    return None


def law_disjoint_union_with_self(lts: FrozenLTS) -> Optional[str]:
    """Each state must be equivalent to its own copy in ``lts + lts``.

    Comparing a system against an identical copy through the disjoint
    union is how every two-system comparison works (Section IV), so the
    diagonal must land in the diagonal of the partition.
    """
    union, _, _ = disjoint_union(lts, lts)
    offset = lts.num_states
    for name, partition_fn in (
        ("strong", strong_partition),
        ("branching", branching_partition),
        ("weak", weak_partition),
    ):
        block_of = partition_fn(union)
        for state in range(lts.num_states):
            if block_of[state] != block_of[state + offset]:
                return (
                    f"state {state} not {name}-equivalent to its copy "
                    "in the disjoint union"
                )
    return None


#: All single-system laws, in the order the fuzzer runs them.
ALL_LAWS: List[Tuple[str, Law]] = [
    ("quotient-bisimilar", law_quotient_is_branching_bisimilar),
    ("quotient-idempotent", law_quotient_is_idempotent),
    ("quotient-tau-cycle-free", law_quotient_has_no_tau_cycles),
    ("quotient-preserves-traces", law_quotient_preserves_traces),
    ("equivalence-order", law_equivalences_are_ordered),
    ("relabeling-invariance", law_relabeling_invariance),
    ("disjoint-union-diagonal", law_disjoint_union_with_self),
]


def check_laws(lts: FrozenLTS) -> List[Tuple[str, str]]:
    """Run every law; returns ``(law_name, violation_message)`` pairs."""
    violations = []
    for name, law in ALL_LAWS:
        message = law(lts)
        if message is not None:
            violations.append((name, message))
    return violations
