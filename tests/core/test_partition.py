"""Unit tests for block maps, the signature-refinement step, and the
Moore sweep that the test suite keeps as a reference."""

import pytest

from repro.core import (
    is_refinement,
    normalize,
    num_blocks,
    partition_from_key,
    same_partition,
)

from tests.helpers import moore_refine, refine_step


def test_normalize_renumbers_densely():
    assert normalize([5, 5, 2, 5, 2, 9]) == [0, 0, 1, 0, 1, 2]


def test_num_blocks():
    assert num_blocks([]) == 0
    assert num_blocks([0, 1, 1, 2]) == 3


def test_partition_from_key_groups():
    assert partition_from_key(["x", "y", "x", "z"]) == [0, 1, 0, 2]


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

    result = moore_refine(4, signature_fn)
    # 3 is stable under its self-loop; 2 sees 3, 1 sees 2, 0 sees 1. The
    # coarsest stable partition keeps 3 alone... actually all four states
    # have pairwise-different distances to the sink, so the fixpoint has
    # 2 blocks at least; verify stability instead of an exact shape:
    sigs = signature_fn(result)
    refined, changed = refine_step(result, sigs)
    assert not changed


def test_refine_to_fixpoint_initial_partition_respected():
    result = moore_refine(4, lambda b: ["s"] * 4, initial=[0, 0, 1, 1])
    assert same_partition(result, [0, 0, 1, 1])
    assert is_refinement(result, [0, 0, 1, 1])


def test_refine_to_fixpoint_rejects_bad_initial():
    with pytest.raises(ValueError):
        moore_refine(3, lambda b: ["s"] * 3, initial=[0, 0])


def test_refine_to_fixpoint_empty():
    assert moore_refine(0, lambda b: []) == []
