"""Validity of diagnostic explanations against the source LTS.

``tests/core/test_diagnostics.py`` checks that explanations exist and
render; this module checks the stronger property the differential
subsystem cares about: every move an explanation *claims* must actually
exist in the LTS, divergence claims must be true divergences inside the
block they name, and an explanation must exist exactly when the states
are inequivalent -- for the log of a reduced and of an unreduced
refinement alike.
"""

import pytest
from hypothesis import given

from repro.core import (
    DIVERGENCE_MARK,
    SplitLog,
    SplitTree,
    branching_partition,
    compare_branching,
    disjoint_union,
    explain_inequivalence,
    explain_states,
    make_lts,
)
from repro.core.lts import TAU_ID, ensure_frozen
from repro.testing import diverges_within, lts_strategy, tau_heavy_lts_strategy


def _has_transition(lts, src, label, dst):
    aid = lts.lookup_action(label)
    if aid is None:
        return False
    return (aid, dst) in lts.successors(src)


def _assert_levels_are_valid(lts, explanation, block_of):
    """``block_of`` is the final partition of the relation explained."""
    for level in explanation.levels:
        assert level.holder in ("left", "right")
        if level.action == DIVERGENCE_MARK:
            # A divergence claim is made just before the split separating
            # witness and opponent, so it names a block of that coarser
            # partition -- which still holds both states and is a union
            # of final classes.  Within it the witness must truly
            # diverge and the opponent must not; the witness's final
            # class may well have shrunk below the tau-cycle, so
            # checking against it would be wrong.
            block = level.block
            assert level.witness_state in block
            assert level.opponent_state in block
            classes = {block_of[s] for s in block}
            assert block == {
                s for s in range(lts.num_states) if block_of[s] in classes
            }
            assert diverges_within(lts, level.witness_state, set(block))
            assert not diverges_within(lts, level.opponent_state, set(block))
            continue
        # The witness move must be a real transition of the LTS.
        assert _has_transition(
            lts, level.witness_state, level.action, level.witness_target
        ), (
            f"explanation claims {level.witness_state} "
            f"--{level.action!r}--> {level.witness_target}, "
            "but the LTS has no such transition"
        )
        # Every opponent candidate must be a real target of the action,
        # and in another final class than the witness's target.
        aid = lts.lookup_action(level.action)
        for candidate in level.opponent_targets:
            assert any(
                aid2 == aid and dst == candidate
                for src in range(lts.num_states)
                for aid2, dst in lts.successors(src)
            )
            assert block_of[candidate] != block_of[level.witness_target]
        if level.chosen_opponent_target is not None:
            assert level.chosen_opponent_target in level.opponent_targets


def _states_tau_reaching(lts, target):
    """All states with a (possibly empty) silent path into ``target``."""
    reaching = {target}
    changed = True
    while changed:
        changed = False
        for src in range(lts.num_states):
            if src in reaching:
                continue
            for aid, dst in lts.successors(src):
                if aid == TAU_ID and dst in reaching:
                    reaching.add(src)
                    changed = True
                    break
    return reaching


@given(lts_strategy(max_states=5, max_transitions=8))
def test_explanation_exists_iff_states_inequivalent(lts):
    block_of = branching_partition(lts)
    for left in range(lts.num_states):
        for right in range(lts.num_states):
            explanation = explain_states(lts, left, right)
            if block_of[left] == block_of[right]:
                assert explanation is None
            else:
                assert explanation is not None
                assert explanation.levels
                _assert_levels_are_valid(lts, explanation, block_of)


@given(tau_heavy_lts_strategy(max_states=4, max_transitions=7))
def test_divergence_explanations_are_valid(lts):
    block_of = branching_partition(lts, divergence=True)
    for left in range(lts.num_states):
        for right in range(lts.num_states):
            explanation = explain_states(lts, left, right, divergence=True)
            if block_of[left] == block_of[right]:
                assert explanation is None
            else:
                assert explanation is not None
                _assert_levels_are_valid(lts, explanation, block_of)


@pytest.mark.parametrize("divergence", [False, True])
@given(lts=tau_heavy_lts_strategy(max_states=5, max_transitions=8))
def test_unreduced_split_log_explains_like_the_reduced_one(lts, divergence):
    # ``compare`` without ``--reduce`` explains from the log of the
    # unreduced refinement, whose components are the silent SCCs.
    lts = ensure_frozen(lts)
    log = SplitLog()
    block_of = branching_partition(lts, divergence=divergence, log=log)
    tree = SplitTree(lts, log)
    for left in range(lts.num_states):
        for right in range(lts.num_states):
            explanation = tree.explain(left, right)
            assert (explanation is None) == (block_of[left] == block_of[right])
            if explanation is not None:
                _assert_levels_are_valid(lts, explanation, block_of)


@given(
    lts_strategy(max_states=4, max_transitions=6),
    lts_strategy(max_states=4, max_transitions=6),
)
def test_explain_inequivalence_matches_compare(a, b):
    outcome = compare_branching(a, b)
    explanation = explain_inequivalence(a, b)
    if outcome.equivalent:
        assert explanation is None
    else:
        assert explanation is not None
        union, init_a, init_b = disjoint_union(a, b)
        _assert_levels_are_valid(union, explanation, outcome.block_of)
        # The first distinguishing move starts at a state silently
        # reachable from the root of the side claiming the move.
        first = explanation.levels[0]
        reach = _states_tau_reaching(union, first.witness_state)
        holder_root = init_a if first.holder == "left" else init_b
        assert holder_root in reach


def test_divergence_level_claims_true_divergence():
    # spin vs deadlock: the explanation must be a divergence claim, and
    # the claimed witness really diverges inside the block it names.
    spin = make_lts(1, 0, [(0, "tau", 0)])
    dead = make_lts(1, 0, [])
    explanation = explain_inequivalence(spin, dead, divergence=True)
    assert explanation is not None
    marks = [
        level for level in explanation.levels
        if level.action == DIVERGENCE_MARK
    ]
    assert marks
    assert marks[0].block == {0, 1}
    union, _, _ = disjoint_union(spin, dead)
    _assert_levels_are_valid(
        union, explanation, branching_partition(union, divergence=True)
    )
