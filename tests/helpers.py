"""Shared helpers for the test suite: brute-force oracles and generators.

Since the differential-testing subsystem landed, the reference
implementations live in :mod:`repro.testing` (oracles, generators,
laws) where both the test suite and the ``repro fuzz`` harness share
them.  This module keeps the historical names as thin aliases so
existing tests keep reading naturally, plus what several test modules
share: the Moore sweep kept as a reference (:func:`moore_refine`, one
:func:`refine_step` at a time) and the tau-cyclic system strategy
(:func:`tau_cyclic_systems`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st

from repro.core import LTS, make_lts, normalize, num_blocks
from repro.testing import (
    bounded_traces,
    branching_bisimulation_relation,
    is_trace_of,
    lts_strategy,
    tau_heavy_lts_strategy,
    weak_bisimulation_relation,
)

__all__ = [
    "bounded_traces",
    "is_trace_of",
    "lts_strategy",
    "tau_heavy_lts_strategy",
    "naive_branching_bisimulation",
    "naive_weak_bisimulation",
    "moore_refine",
    "refine_step",
    "tau_cyclic_systems",
    "ExecOnUnpickle",
]


def refine_step(
    block_of: List[int], signatures: Sequence[Hashable]
) -> Tuple[List[int], bool]:
    """Split every block by signature.  Returns ``(partition, changed)``.

    One whole-system sweep of signature refinement (Blom & Orzan): two
    states stay together only if they share a block and a signature.
    """
    table: Dict[Tuple[int, Hashable], int] = {}
    new_block_of = [0] * len(block_of)
    for state, block in enumerate(block_of):
        key = (block, signatures[state])
        nb = table.get(key)
        if nb is None:
            nb = len(table)
            table[key] = nb
        new_block_of[state] = nb
    return new_block_of, len(table) != num_blocks(block_of)


def moore_refine(
    n: int,
    signature_fn: Callable[[List[int]], Sequence[Hashable]],
    initial: Optional[List[int]] = None,
) -> List[int]:
    """Moore's whole-system sweep: :func:`refine_step` until stable.

    Returns the coarsest refinement of ``initial`` (one block if
    ``None``) in which equal blocks carry equal signatures.  It is the
    reference for the Paige-Tarjan DFA minimisation of
    ``repro.core.traces.language_partition`` (``tests/core/test_traces.py``);
    ``tests/core/test_partition.py`` pins the sweep itself.
    """
    if n == 0:
        return []
    block_of = normalize(initial) if initial is not None else [0] * n
    if len(block_of) != n:
        raise ValueError("initial partition has wrong length")
    changed = True
    while changed:
        block_of, changed = refine_step(block_of, signature_fn(block_of))
    return block_of


@st.composite
def tau_cyclic_systems(draw):
    """Small LTSs, tau-dense, with at least one tau-cycle."""
    n = draw(st.integers(min_value=1, max_value=9))
    edges = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.sampled_from(["tau", "tau", "a", "b"]),
        st.integers(0, n - 1),
    ), max_size=20))
    start = draw(st.integers(0, n - 1))
    length = draw(st.integers(1, n))
    cycle = [(start + k) % n for k in range(length)]
    edges += [(cycle[k], "tau", cycle[(k + 1) % length]) for k in range(length)]
    return make_lts(n, draw(st.integers(0, n - 1)), edges)


def naive_branching_bisimulation(lts: LTS) -> Set[Tuple[int, int]]:
    """Greatest branching bisimulation by naive fixpoint (Definition 4.1)."""
    return branching_bisimulation_relation(lts)


def naive_weak_bisimulation(lts: LTS) -> Set[Tuple[int, int]]:
    """Greatest weak bisimulation by naive fixpoint (Milner)."""
    return weak_bisimulation_relation(lts)


class ExecOnUnpickle:
    """A hostile payload: unpickling it calls ``exec(code)``."""

    def __init__(self, code: str) -> None:
        self.code = code

    def __reduce__(self):
        return (exec, (self.code,))
