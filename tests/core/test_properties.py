"""Property-based tests on random LTSs (hypothesis).

These check the paper's meta-theorems on arbitrary small systems:
Theorem 4.3 (max-trace == branching bisimulation), Theorem 5.2 (the
quotient preserves traces), Lemma 5.7 (quotients have no tau-cycles),
the lattice of equivalences, and counterexample validity of the
refinement checker.
"""

from hypothesis import HealthCheck, given, settings

from repro.core import (
    branching_partition,
    compare_branching,
    is_refinement,
    ktrace_hierarchy,
    make_lts,
    num_blocks,
    quotient_lts,
    same_partition,
    strong_partition,
    tau_cycle_states,
    trace_refines,
    weak_partition,
)
from tests.helpers import (
    bounded_traces,
    is_trace_of,
    lts_strategy,
    naive_branching_bisimulation,
)

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(lts_strategy())
def test_equivalence_lattice(lts):
    strong = strong_partition(lts)
    branching = branching_partition(lts)
    branching_div = branching_partition(lts, divergence=True)
    weak = weak_partition(lts)
    assert is_refinement(strong, branching)
    assert is_refinement(branching, weak)
    assert is_refinement(branching_div, branching)


@COMMON
@given(lts_strategy())
def test_branching_matches_naive_oracle(lts):
    blocks = branching_partition(lts)
    oracle = naive_branching_bisimulation(lts)
    for s in range(lts.num_states):
        for r in range(lts.num_states):
            assert ((s, r) in oracle) == (blocks[s] == blocks[r]), (s, r)


@COMMON
@given(lts_strategy())
def test_theorem_4_3_on_random_systems(lts):
    hierarchy = ktrace_hierarchy(lts)
    assert hierarchy.cap is not None
    assert same_partition(hierarchy.max_trace_partition, branching_partition(lts))


@COMMON
@given(lts_strategy())
def test_quotient_bisimilar_and_trace_preserving(lts):
    blocks = branching_partition(lts)
    quotient = quotient_lts(lts, blocks)
    assert compare_branching(lts, quotient.lts).equivalent
    assert trace_refines(lts, quotient.lts).holds
    assert trace_refines(quotient.lts, lts).holds
    # Theorem 5.2 via bounded enumeration as an independent oracle.
    assert bounded_traces(lts, lts.init, 4) == bounded_traces(
        quotient.lts, quotient.lts.init, 4
    )


@COMMON
@given(lts_strategy())
def test_lemma_5_7_no_tau_cycles_in_quotient(lts):
    quotient = quotient_lts(lts, branching_partition(lts))
    assert tau_cycle_states(quotient.lts) == []


@COMMON
@given(lts_strategy())
def test_divergence_sensitive_quotient_comparison(lts):
    # Theorem 5.9's engine: Delta ~div Delta/~ iff Delta has no divergence
    # reachable through equivalent states.  At minimum: if the plain
    # comparison already fails something is wrong (it must always hold).
    quotient = quotient_lts(lts, branching_partition(lts))
    assert compare_branching(lts, quotient.lts).equivalent


@COMMON
@given(lts_strategy(), lts_strategy())
def test_refinement_counterexample_validity(impl, spec):
    result = trace_refines(impl, spec)
    if result.holds:
        # Bounded oracle: every short trace of impl is a trace of spec.
        for trace in bounded_traces(impl, impl.init, 3):
            assert is_trace_of(spec, list(trace))
    else:
        assert result.counterexample is not None
        assert is_trace_of(impl, result.counterexample)
        assert not is_trace_of(spec, result.counterexample)


@COMMON
@given(lts_strategy())
def test_k_hierarchy_monotone_and_level1_sound(lts):
    hierarchy = ktrace_hierarchy(lts)
    for coarse, fine in zip(hierarchy.partitions, hierarchy.partitions[1:]):
        assert is_refinement(fine, coarse)
    # Level 1 equivalence == equality of bounded trace sets for small
    # systems (bound exceeds the number of states, so it is exact up to
    # pumping; we use it as a refutation oracle only).
    p1 = hierarchy.partitions[min(1, len(hierarchy.partitions) - 1)]
    for s in range(lts.num_states):
        for r in range(s + 1, lts.num_states):
            if p1[s] == p1[r]:
                assert bounded_traces(lts, s, 4) == bounded_traces(lts, r, 4)


@COMMON
@given(lts_strategy())
def test_quotient_size_never_exceeds_original(lts):
    blocks = branching_partition(lts)
    quotient = quotient_lts(lts, blocks)
    assert quotient.lts.num_states <= lts.num_states
    assert quotient.lts.num_states == len(
        {blocks[s] for s in lts.reachable_states()}
    )


@COMMON
@given(lts_strategy())
def test_weak_matches_naive_oracle(lts):
    from repro.core import weak_partition
    from tests.helpers import naive_weak_bisimulation

    blocks = weak_partition(lts)
    oracle = naive_weak_bisimulation(lts)
    for s in range(lts.num_states):
        for r in range(lts.num_states):
            assert ((s, r) in oracle) == (blocks[s] == blocks[r]), (s, r)


@COMMON
@given(lts_strategy())
def test_quotient_is_idempotent(lts):
    first = quotient_lts(lts, branching_partition(lts))
    second = quotient_lts(first.lts, branching_partition(first.lts))
    assert first.lts.num_states == second.lts.num_states
    assert first.lts.num_transitions == second.lts.num_transitions


@COMMON
@given(lts_strategy(labels=("tau", "a")))
def test_divergence_lasso_is_replayable(lts):
    from repro.core import find_divergence_lasso

    lasso = find_divergence_lasso(lts)
    if lasso is None:
        return
    state = lts.init
    for step in lasso.stem:
        assert step.src == state
        aid = lts.lookup_action(step.label if step.label != ("tau",) else ("tau",))
        assert (aid, step.dst) in lts.successors(step.src)
        state = step.dst
    cycle_start = state
    for step in lasso.cycle:
        assert step.src == state
        assert step.dst in lts.tau_successors(step.src)  # all tau
        state = step.dst
    assert state == cycle_start
