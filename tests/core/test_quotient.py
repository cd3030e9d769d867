"""Quotient transition system tests (Definition 5.1, Theorem 5.2, Lemma 5.7)."""

from repro.core import (
    TAU,
    TAU_ID,
    branching_partition,
    compare_branching,
    make_lts,
    quotient_lts,
    tau_cycle_states,
    trace_equivalent,
)
from repro.core.lts import LTS


def build_ms_like():
    """A small system with an inert tau, an effectual tau and visible steps."""
    return make_lts(6, 0, [
        (0, "tau", 1),            # inert (same class)
        (1, ("call", 1), 2),
        (2, "tau", 3),            # effectual: changes enabled returns
        (3, ("ret", 1), 4),
        (2, ("ret", 0), 5),
    ])


def test_quotient_drops_inert_tau_keeps_effectual():
    lts = build_ms_like()
    blocks = branching_partition(lts)
    quotient = quotient_lts(lts, blocks)
    # 0 and 1 collapse; the effectual tau 2->3 must survive.
    assert blocks[0] == blocks[1]
    tau_edges = [
        (src, dst) for src, aid, dst in quotient.lts.transitions() if aid == TAU_ID
    ]
    assert len(tau_edges) == 1


def test_quotient_has_no_tau_selfloops():
    lts = make_lts(2, 0, [(0, "tau", 0), (0, "a", 1)])
    quotient = quotient_lts(lts, branching_partition(lts))
    for src, aid, dst in quotient.lts.transitions():
        assert not (aid == TAU_ID and src == dst)


def test_lemma_5_7_quotient_has_no_tau_cycle():
    # tau-cycle collapses to a single class; quotient has no tau-cycle.
    lts = make_lts(4, 0, [
        (0, "tau", 1), (1, "tau", 2), (2, "tau", 0), (2, "a", 3),
    ])
    quotient = quotient_lts(lts, branching_partition(lts))
    assert tau_cycle_states(quotient.lts) == []


def test_quotient_branching_bisimilar_to_original():
    lts = build_ms_like()
    quotient = quotient_lts(lts, branching_partition(lts))
    assert compare_branching(lts, quotient.lts).equivalent


def test_theorem_5_2_traces_preserved():
    lts = build_ms_like()
    quotient = quotient_lts(lts, branching_partition(lts))
    assert trace_equivalent(lts, quotient.lts)


def test_quotient_annotations_aggregate():
    lts = LTS()
    # State 0 may still return either value; after the effectual L20 step
    # only EMPTY remains, so 0 and 1 are in different classes and the
    # tau survives quotienting with its annotation.
    lts.add_transition(0, ("ret", "A"), 3)
    lts.add_transition(0, TAU, 1, annotation="t1.L20")
    lts.add_transition(1, ("ret", "EMPTY"), 2)
    # An inert local step whose annotation must NOT be reported:
    lts.add_transition(1, TAU, 4, annotation="t1.L19")
    lts.add_transition(4, ("ret", "EMPTY"), 2)
    blocks = branching_partition(lts)
    quotient = quotient_lts(lts, blocks)
    essential = quotient.essential_internal_annotations()
    assert "t1.L20" in essential
    assert "t1.L19" not in essential


def test_essential_annotations_skip_trimmed_classes():
    lts = LTS()
    lts.add_transition(0, ("ret", "A"), 1)
    lts.add_transition(0, TAU, 4, annotation="t1.L20")
    lts.add_transition(4, ("ret", "EMPTY"), 1)
    # Unreachable: 2's silent step leaves its class (only 2 can do c),
    # but both classes are trimmed from the quotient.
    lts.add_transition(2, TAU, 3, annotation="t2.L7")
    lts.add_transition(2, "c", 1)
    lts.add_transition(3, "b", 1)
    quotient = quotient_lts(lts, branching_partition(lts))
    assert quotient.block_of[2] is None and quotient.block_of[3] is None
    assert quotient.essential_internal_annotations() == {"t1.L20"}


def test_quotient_restricts_to_reachable_classes():
    # State 3 unreachable: its class must not appear in the quotient.
    lts = make_lts(4, 0, [(0, "a", 1), (3, "b", 2)])
    blocks = branching_partition(lts)
    quotient = quotient_lts(lts, blocks)
    reachable = set(quotient.lts.reachable_states())
    assert reachable == set(range(quotient.lts.num_states))


def test_quotient_block_map_covers_reachable_states():
    lts = build_ms_like()
    quotient = quotient_lts(lts, branching_partition(lts))
    for state in lts.reachable_states():
        assert 0 <= quotient.block_of[state] < quotient.lts.num_states


def test_quotient_block_map_does_not_alias_trimmed_states():
    # State 3's class is unreachable and trimmed from the quotient
    # (state 2 is unreachable too, but shares its class with the
    # reachable state 1, so its class survives).  The trimmed entry
    # used to be the sentinel -1 -- a *valid* negative Python index
    # that silently aliases the last quotient state in any consumer
    # indexing with it.  It must be None instead.
    lts = make_lts(4, 0, [(0, "a", 1), (3, "b", 2)])
    blocks = branching_partition(lts)
    quotient = quotient_lts(lts, blocks)
    assert quotient.lts.num_states < len(set(blocks))  # trim path exercised
    assert quotient.block_of[3] is None
    # States of surviving classes keep valid in-range indices; state 2
    # maps with its classmate 1, not to a trimmed marker.
    for state in (0, 1, 2):
        mapped = quotient.block_of[state]
        assert mapped is not None
        assert 0 <= mapped < quotient.lts.num_states
    assert quotient.block_of[2] == quotient.block_of[1]


def test_quotient_of_quotient_is_isomorphic():
    lts = build_ms_like()
    q1 = quotient_lts(lts, branching_partition(lts))
    q2 = quotient_lts(q1.lts, branching_partition(q1.lts))
    assert q1.lts.num_states == q2.lts.num_states
    assert q1.lts.num_transitions == q2.lts.num_transitions
