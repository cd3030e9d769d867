"""Unit tests for block maps and the generic signature-refinement loop."""

import pytest

from repro.core import (
    RefinementNotConverged,
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


def test_normalize_renumbers_densely():
    assert normalize([5, 5, 2, 5, 2, 9]) == [0, 0, 1, 0, 1, 2]


def test_num_blocks():
    assert num_blocks([]) == 0
    assert num_blocks([0, 1, 1, 2]) == 3


def test_partition_from_key_groups():
    assert partition_from_key(["x", "y", "x", "z"]) == [0, 1, 0, 2]


def test_blocks_of():
    assert blocks_of([0, 1, 0]) == [[0, 2], [1]]


def test_same_partition_up_to_renaming():
    assert same_partition([0, 0, 1], [1, 1, 0])
    assert same_partition([5, 5, 2], [0, 0, 4])
    assert not same_partition([0, 0, 1], [0, 1, 1])
    assert not same_partition([0, 0], [0, 0, 0])


def test_is_refinement():
    assert is_refinement([0, 1, 2], [0, 0, 1])
    assert not is_refinement([0, 0, 1], [0, 1, 1])
    assert is_refinement([0, 1], [0, 0])
    assert not is_refinement([0, 1], [0])


def test_refine_step_splits_by_signature():
    block_of = [0, 0, 0]
    refined, changed = refine_step(block_of, ["x", "y", "x"])
    assert changed
    assert same_partition(refined, [0, 1, 0])
    refined2, changed2 = refine_step(refined, ["q", "q", "q"])
    assert not changed2
    assert same_partition(refined2, refined)


def test_refine_step_respects_existing_blocks():
    # Equal signatures in different blocks must not merge blocks.
    refined, changed = refine_step([0, 1], ["same", "same"])
    assert not changed
    assert same_partition(refined, [0, 1])


def test_refine_to_fixpoint_reaches_stability():
    # Chain 0 -> 1 -> 2 -> 3 (signature = successor's block): stabilizes
    # with each state in its own block except none mergeable.
    succ = {0: 1, 1: 2, 2: 3, 3: 3}

    def signature_fn(block_of):
        return [block_of[succ[s]] for s in range(4)]

    result = refine_to_fixpoint(4, signature_fn)
    # 3 is stable under its self-loop; 2 sees 3, 1 sees 2, 0 sees 1. The
    # coarsest stable partition keeps 3 alone... actually all four states
    # have pairwise-different distances to the sink, so the fixpoint has
    # 2 blocks at least; verify stability instead of an exact shape:
    sigs = signature_fn(result)
    refined, changed = refine_step(result, sigs)
    assert not changed


def test_refine_to_fixpoint_initial_partition_respected():
    result = refine_to_fixpoint(4, lambda b: ["s"] * 4, initial=[0, 0, 1, 1])
    assert same_partition(result, [0, 0, 1, 1])
    assert is_refinement(result, [0, 0, 1, 1])


def test_refine_to_fixpoint_rejects_bad_initial():
    with pytest.raises(ValueError):
        refine_to_fixpoint(3, lambda b: ["s"] * 3, initial=[0, 0])


def test_refine_to_fixpoint_empty():
    assert refine_to_fixpoint(0, lambda b: []) == []


def _distance_signature_fn(n, succ):
    """Chain signature (successor's block): needs ~n sweeps to stabilize.

    Starting from an initial partition separating the sink, each sweep
    peels off the states one step closer to it, so small ``max_sweeps``
    caps genuinely interrupt the run mid-refinement.
    """

    def signature_fn(block_of):
        return [block_of[succ[s]] for s in range(n)]

    return signature_fn


#: Separates the chain's sink so refinement has a cascade to propagate.
_CHAIN_INITIAL = [0, 0, 0, 0, 0, 1]


def test_refine_to_fixpoint_max_sweeps_raises_when_unstable():
    # Chain 0 -> 1 -> ... -> 5 -> 5: one sweep is not enough, and an
    # unstable partition must never be returned as if it were a fixpoint.
    succ = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 5}
    signature_fn = _distance_signature_fn(6, succ)
    with pytest.raises(RefinementNotConverged) as excinfo:
        refine_to_fixpoint(
            6, signature_fn, initial=_CHAIN_INITIAL, max_sweeps=1
        )
    partial = excinfo.value.run
    assert not partial.converged
    assert partial.sweeps == 1
    # The carried partial partition is a genuine intermediate: coarser
    # than the true fixpoint but already split at least once.
    assert 1 < num_blocks(partial.block_of) < 6


def test_refine_to_fixpoint_max_sweeps_ok_when_converged_within_cap():
    # A generous cap that the fixpoint fits under must not raise.
    result = refine_to_fixpoint(3, lambda b: [0, 1, 2], max_sweeps=5)
    assert num_blocks(result) == 3


def test_refine_with_status_reports_convergence():
    run = refine_with_status(3, lambda b: [0, 1, 2])
    assert run.converged
    # One sweep splits into singletons, a second proves stability.
    assert run.sweeps == 2
    assert num_blocks(run.block_of) == 3


def test_refine_with_status_reports_cutoff():
    succ = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 5}
    signature_fn = _distance_signature_fn(6, succ)
    capped = refine_with_status(
        6, signature_fn, initial=_CHAIN_INITIAL, max_sweeps=2
    )
    assert not capped.converged
    assert capped.sweeps == 2
    full = refine_with_status(6, signature_fn, initial=_CHAIN_INITIAL)
    assert full.converged
    assert is_refinement(full.block_of, capped.block_of)


def test_refine_with_status_empty_is_converged():
    run = refine_with_status(0, lambda b: [])
    assert run.converged
    assert run.sweeps == 0
    assert run.block_of == []
