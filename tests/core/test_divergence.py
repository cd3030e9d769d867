"""Divergence detection and lasso diagnostics (Section V.B, Fig. 9)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    divergent_states,
    find_divergence_lasso,
    make_lts,
    tau_cycle_states,
)
from repro.core.graphs import divergence_marks
from repro.core.lts import tau_successor_lists
from repro.testing.oracles import diverges_within, tau_cycle_states_naive

from tests.helpers import tau_cyclic_systems


def test_no_cycles_in_dag():
    lts = make_lts(3, 0, [(0, "tau", 1), (1, "a", 2)])
    assert tau_cycle_states(lts) == []
    assert find_divergence_lasso(lts) is None
    assert divergent_states(lts) == [False, False, False]


def test_self_loop_detected():
    lts = make_lts(2, 0, [(0, "a", 1), (1, "tau", 1)])
    assert tau_cycle_states(lts) == [1]
    assert divergent_states(lts) == [False, True]


def test_visible_cycle_is_not_divergence():
    lts = make_lts(2, 0, [(0, "a", 1), (1, "b", 0)])
    assert tau_cycle_states(lts) == []
    assert find_divergence_lasso(lts) is None


def test_mixed_cycle_is_not_tau_cycle():
    # Cycle with one visible action is an infinite execution but not a
    # divergence (a return happens infinitely often).
    lts = make_lts(2, 0, [(0, "tau", 1), (1, "a", 0)])
    assert tau_cycle_states(lts) == []


def test_divergent_states_propagate_backwards():
    lts = make_lts(4, 0, [
        (0, "tau", 1), (1, "tau", 2), (2, "tau", 2), (0, "a", 3),
    ])
    marks = divergent_states(lts)
    assert marks == [True, True, True, False]


def test_lasso_stem_and_cycle():
    lts = make_lts(4, 0, [
        (0, ("call", 1, "deq"), 1),
        (1, "tau", 2),
        (2, "tau", 3),
        (3, "tau", 2),
    ])
    lasso = find_divergence_lasso(lts)
    assert lasso is not None
    stem_labels = [step.label for step in lasso.stem]
    assert stem_labels[0] == ("call", 1, "deq")
    assert len(lasso.cycle) == 2
    for step in lasso.cycle:
        assert step.label == ("tau",)


def test_lasso_with_initial_state_on_cycle():
    lts = make_lts(2, 0, [(0, "tau", 1), (1, "tau", 0)])
    lasso = find_divergence_lasso(lts)
    assert lasso is not None
    assert lasso.stem == []
    assert len(lasso.cycle) == 2


def test_lasso_annotations_render():
    from repro.core.lts import LTS, TAU

    lts = LTS()
    lts.add_transition(0, ("call", 1, "deq"), 1)
    lts.add_transition(1, TAU, 1, annotation="t1.L13(scan)")
    lasso = find_divergence_lasso(lts)
    text = lasso.render()
    assert "t1.L13(scan)" in text
    assert "divergence" in text


def test_unreachable_cycle_yields_no_lasso():
    # tau-cycle exists but cannot be reached from the initial state.
    lts = make_lts(3, 0, [(0, "a", 1), (2, "tau", 2)])
    assert 2 in tau_cycle_states(lts)
    assert find_divergence_lasso(lts) is None


# ----------------------------------------------------------------------
# the cyclic rule and Definition 5.4's marking against the oracles
# ----------------------------------------------------------------------

@given(tau_cyclic_systems())
def test_tau_cycle_states_match_the_naive_oracle(lts):
    assert tau_cycle_states(lts) == sorted(tau_cycle_states_naive(lts))


@given(tau_cyclic_systems(), st.data())
def test_partition_relative_marks_match_diverges_within(lts, data):
    n = lts.num_states
    block_of = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    marks = divergence_marks(tau_successor_lists(lts), block_of)
    for s in range(n):
        block = {t for t in range(n) if block_of[t] == block_of[s]}
        assert marks[s] == diverges_within(lts, s, block), s


@given(tau_cyclic_systems())
def test_divergent_states_are_the_one_block_marks(lts):
    everything = set(range(lts.num_states))
    assert divergent_states(lts) == [
        diverges_within(lts, s, everything) for s in range(lts.num_states)
    ]
