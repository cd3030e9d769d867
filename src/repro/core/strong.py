"""Strong bisimulation (tau treated as an ordinary action).

Its Paige-Tarjan core (:func:`repro.core.splitter.strong_splitter`)
also minimises the k-trace DFAs of
:func:`repro.core.traces.language_partition`: on a deterministic subset
automaton strong bisimilarity coincides with language equivalence.
Strong bisimulation is also the base case in tests relating the three
bisimulations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .lts import AnyLTS, disjoint_union, ensure_frozen
from .partition import BlockMap, num_blocks
from .branching import Comparison
from .splitter import strong_splitter
from ..util.metrics import stage

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats


def strong_partition(
    lts: AnyLTS,
    initial: Optional[BlockMap] = None,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> BlockMap:
    """Partition of the states of ``lts`` under strong bisimilarity."""
    frozen = ensure_frozen(lts)
    if stats is None:
        return strong_splitter(frozen, initial=initial, budget=budget)
    with stats.stage("refinement"):
        block_of = strong_splitter(
            frozen, initial=initial, budget=budget, stats=stats
        )
        stats.count("blocks", num_blocks(block_of))
    return block_of


def compare_strong(
    a: AnyLTS,
    b: AnyLTS,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> Comparison:
    """Decide whether two LTSs are strongly bisimilar."""
    with stage(stats, "union"):
        union, init_a, init_b = disjoint_union(a, b)
    block_of = strong_partition(union, stats=stats, budget=budget)
    return Comparison(
        equivalent=block_of[init_a] == block_of[init_b],
        union=union,
        block_of=block_of,
        init_a=init_a,
        init_b=init_b,
    )
