"""Unit + property tests for the silent-structure reduction pass.

The pass (``repro.core.reduce``) must be invisible to every consumer:
the partition refined on the reduced system and lifted back has to be
exactly the one the unreduced engine computes, and the quotient built
from the reduced system has to be strongly bisimilar to the quotient of
the original.  Divergence-sensitivity rides on the τ-cycle marks, so
those are pinned explicitly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LTS,
    TAU,
    TAU_ID,
    branching_partition,
    compare_strong,
    lift_partition,
    make_lts,
    normalize,
    quotient_lts,
    reduce_lts,
    same_partition,
)
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.core.reduce import condense_silent_sccs
from repro.testing.generators import lts_strategy, tau_heavy_lts_strategy
from repro.testing.oracles import tau_cycle_states_naive
from repro.util.metrics import Stats


# ----------------------------------------------------------------------
# Layer 1: inert tau-SCC condensation
# ----------------------------------------------------------------------

def test_tau_chain_collapses_to_visible_suffix():
    # 0 -tau-> 1 -tau-> 2 -a-> 3: every silent edge is trivially
    # confluent (no co-edges), so the chain collapses onto state 2.
    lts = make_lts(4, 0, [(0, "tau", 1), (1, "tau", 2), (2, "a", 3)])
    reduced = reduce_lts(lts)
    assert reduced.lts.num_states == 2
    assert reduced.lts.num_transitions == 1
    assert reduced.states_removed == 2
    assert reduced.transitions_removed == 2
    ((src, aid, dst),) = reduced.lts.transitions()
    assert reduced.lts.action_labels[aid] == "a"
    assert src == reduced.lts.init
    # All of 0, 1, 2 map to the same reduced state; 3 maps elsewhere.
    assert reduced.state_of[0] == reduced.state_of[1] == reduced.state_of[2]
    assert reduced.state_of[3] != reduced.state_of[0]


def test_tau_cycle_condenses_without_divergence_marks():
    lts = make_lts(3, 0, [(0, "tau", 1), (1, "tau", 0), (0, "a", 2)])
    reduced = reduce_lts(lts, divergence=False)
    assert reduced.lts.num_states == 2
    # Plain branching bisimilarity forgets the cycle: no self-loop.
    assert reduced.lts.tau_successors(reduced.lts.init) == []
    assert reduced.divergent[reduced.state_of[0]]


@settings(max_examples=150, deadline=None)
@given(tau_heavy_lts_strategy(max_states=8, max_transitions=16), st.data())
def test_silent_scc_contraction_under_a_seed(lts, data):
    # The contract the splitter's bottom-up pass relies on.
    n = lts.num_states
    seed = normalize(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    comp_a, num_comps, marked, codes = condense_silent_sccs(lts, seed)
    comp_of = comp_a.tolist()
    # Each component lies inside one seed block.
    seed_of_comp = {}
    for s in range(n):
        assert seed_of_comp.setdefault(comp_of[s], seed[s]) == seed[s]
    # Silent steps between components of one seed block go downhill.
    inert = [
        (src, dst) for src, aid, dst in lts.transitions()
        if aid == TAU_ID and seed[src] == seed[dst]
    ]
    for src, dst in inert:
        if comp_of[src] != comp_of[dst]:
            assert comp_of[src] > comp_of[dst]
    # Marked iff a silent cycle of the seed-restricted system passes through.
    on_cycle = tau_cycle_states_naive(
        make_lts(n, lts.init, [(src, "tau", dst) for src, dst in inert])
    )
    assert marked.tolist() == [
        any(comp_of[s] == c for s in on_cycle) for c in range(num_comps)
    ]
    # The condensed edges, intra-component silent steps dropped.
    width = len(lts.action_labels) * num_comps
    assert codes.tolist() == sorted({
        comp_of[src] * width + aid * num_comps + comp_of[dst]
        for src, aid, dst in lts.transitions()
        if not (aid == TAU_ID and comp_of[src] == comp_of[dst])
    })


def test_tau_cycle_keeps_self_loop_in_divergence_mode():
    lts = make_lts(3, 0, [(0, "tau", 1), (1, "tau", 0), (0, "a", 2)])
    reduced = reduce_lts(lts, divergence=True)
    init = reduced.lts.init
    assert reduced.lts.tau_successors(init) == [init]
    assert reduced.divergent[init]
    # The non-divergent target state carries no loop.
    other = reduced.state_of[2]
    assert reduced.lts.tau_successors(other) == []
    assert not reduced.divergent[other]


def test_tau_self_loop_marks_singleton_component():
    lts = make_lts(2, 0, [(0, "tau", 0), (0, "a", 1)])
    reduced = reduce_lts(lts, divergence=True)
    init = reduced.lts.init
    assert reduced.divergent[init]
    assert reduced.lts.tau_successors(init) == [init]


# ----------------------------------------------------------------------
# Layer 2: strong tau-confluence
# ----------------------------------------------------------------------

def test_confluent_diamond_is_compressed():
    # 0 -tau-> 1 with co-edge 0 -b-> 2 closed by 1 -b-> 2.
    lts = make_lts(3, 0, [(0, "tau", 1), (0, "b", 2), (1, "b", 2)])
    reduced = reduce_lts(lts)
    assert reduced.lts.num_states == 2
    assert reduced.states_removed == 1
    triples = list(reduced.lts.transitions())
    assert len(triples) == 1
    assert reduced.lts.action_labels[triples[0][1]] == "b"


def test_non_confluent_tau_edge_survives():
    # 1 cannot answer the b step, so 0 -tau-> 1 is a real choice.
    lts = make_lts(3, 0, [(0, "tau", 1), (0, "b", 2)])
    reduced = reduce_lts(lts)
    assert reduced.lts.num_states == 3
    assert reduced.states_removed == 0
    assert reduced.transitions_removed == 0


def test_divergence_mode_blocks_mark_losing_edges():
    # 0 -tau-> 1 would be confluent, but 0 is divergent and 1 is not:
    # in divergence mode the edge must not be compressed away.
    lts = make_lts(2, 0, [(0, "tau", 0), (0, "tau", 1)])
    plain = reduce_lts(lts, divergence=False)
    assert plain.lts.num_states == 1
    sensitive = reduce_lts(lts, divergence=True)
    assert sensitive.lts.num_states == 2
    assert sensitive.divergent[sensitive.state_of[0]]
    assert not sensitive.divergent[sensitive.state_of[1]]


# ----------------------------------------------------------------------
# Bookkeeping: maps, alphabet, stats, empty system
# ----------------------------------------------------------------------

def test_alphabet_is_preserved_verbatim():
    lts = LTS()
    lts.add_transition(0, "a", 1)
    lts.action_id("unused-label")
    reduced = reduce_lts(lts)
    assert reduced.lts.action_labels == lts.freeze().action_labels


def test_representative_maps_back_into_each_class():
    lts = make_lts(4, 0, [(0, "tau", 1), (1, "tau", 2), (2, "a", 3)])
    reduced = reduce_lts(lts)
    for new_state, original in enumerate(reduced.representative):
        assert reduced.state_of[original] == new_state


def test_empty_lts_reduces_to_empty():
    lts = LTS()
    lts.action_id("a")
    reduced = reduce_lts(lts)
    assert reduced.lts.num_states == 0
    assert reduced.state_of == []
    assert reduced.lts.action_labels == lts.freeze().action_labels


def test_stats_record_reduce_stage_and_counters():
    lts = make_lts(3, 0, [(0, "tau", 1), (1, "tau", 2), (2, "a", 0)])
    stats = Stats()
    reduced = reduce_lts(lts, divergence=True, stats=stats)
    assert "reduce" in stats.stage_seconds
    counters = stats.stage_counters("reduce")
    assert counters["states_removed"] == reduced.states_removed
    assert counters["transitions_removed"] == reduced.transitions_removed


def test_lift_partition_round_trip():
    lts = make_lts(4, 0, [(0, "tau", 1), (1, "a", 2), (0, "a", 3)])
    reduced = reduce_lts(lts)
    identity = list(range(reduced.lts.num_states))
    lifted = lift_partition(reduced, identity)
    assert lifted == reduced.state_of


def test_reduce_path_blocks_counter_reflects_lifted_partition(monkeypatch):
    # ``branching_partition(reduce=True, stats=...)`` must record the
    # block count of the lifted partition it *returns*, not of the
    # compressed inner run.  The real pass always produces a surjective
    # ``state_of`` (the two counts then coincide), so the regression is
    # pinned with a stub reduction whose reduced system carries an
    # extra state outside the image: a counter read off the inner run
    # would report 2 blocks, but the partition handed back has 1.
    from repro.core import branching as branching_mod
    from repro.core.lts import ensure_frozen
    from repro.core.reduce import ReducedLTS

    lts = make_lts(1, 0, [])
    padded = make_lts(2, 0, [(1, "b", 1)])

    def fake_reduce(frozen, divergence=False, stats=None, budget=None):
        return ReducedLTS(
            lts=ensure_frozen(padded),
            state_of=[0],
            representative=[0, 0],
            divergent=[False, False],
            states_removed=0,
            transitions_removed=0,
        )

    monkeypatch.setattr(branching_mod.reduce_mod, "reduce_lts", fake_reduce)
    stats = Stats()
    block_of = branching_partition(lts, stats=stats, reduce=True)
    counters = stats.stage_counters("refinement")
    from repro.core import num_blocks

    assert num_blocks(block_of) == 1
    assert counters["blocks"] == 1


# ----------------------------------------------------------------------
# Properties: the pass is invisible to refinement and quotienting
# ----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(tau_heavy_lts_strategy())
def test_reduced_partition_matches_unreduced(lts):
    for divergence in (False, True):
        plain = branching_partition(lts, divergence=divergence)
        reduced = branching_partition(lts, divergence=divergence, reduce=True)
        assert same_partition(plain, reduced)


@settings(max_examples=100, deadline=None)
@given(lts_strategy())
def test_reduced_partition_matches_unreduced_generic(lts):
    for divergence in (False, True):
        plain = branching_partition(lts, divergence=divergence)
        reduced = branching_partition(lts, divergence=divergence, reduce=True)
        assert same_partition(plain, reduced)


def test_reduced_partition_matches_unreduced_on_explored_treiber():
    # The generators stay small; this pins the same contract on a real
    # object system (treiber 2x2: 10,505 states, 20,188 transitions).
    bench = get("treiber")
    system = explore(bench.build(2), ClientConfig(2, 2, bench.default_workload()))
    for divergence in (False, True):
        plain = branching_partition(system, divergence=divergence)
        reduced = branching_partition(system, divergence=divergence, reduce=True)
        assert same_partition(plain, reduced)


@settings(max_examples=100, deadline=None)
@given(tau_heavy_lts_strategy())
def test_quotient_of_reduced_strongly_bisimilar(lts):
    for divergence in (False, True):
        original = quotient_lts(
            lts, branching_partition(lts, divergence=divergence)
        )
        reduced = reduce_lts(lts, divergence=divergence)
        compressed = quotient_lts(
            reduced.lts,
            branching_partition(reduced.lts, divergence=divergence),
        )
        assert compare_strong(original.lts, compressed.lts).equivalent


@settings(max_examples=100, deadline=None)
@given(tau_heavy_lts_strategy())
def test_reduction_never_invents_tau_cycles(lts):
    # Spurious silent cycles would make a non-divergent system look
    # divergent downstream.  A cycle in the reduced system must come
    # from a marked class of the original.
    reduced = reduce_lts(lts, divergence=True)
    frozen = reduced.lts
    tau_src, tau_dst = frozen.tau_edges()
    for src, dst in zip(tau_src, tau_dst):
        if src == dst:
            assert reduced.divergent[src]


def test_divergence_loop_uses_tau_action():
    lts = make_lts(1, 0, [(0, "tau", 0)])
    reduced = reduce_lts(lts, divergence=True)
    ((src, aid, dst),) = reduced.lts.transitions()
    assert aid == TAU_ID
    assert reduced.lts.action_labels[TAU_ID] is TAU
    assert src == dst == reduced.lts.init
