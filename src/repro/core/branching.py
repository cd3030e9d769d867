"""Branching bisimulation, plain and divergence-sensitive (Definitions 4.1, 5.5).

The partition is the coarsest one stable under branching signatures: a
state's signature is the set of non-inert steps it can take after an
*inert* silent path (silent transitions that stay inside the state's
current block):

    sig(s) = { (a, block(t)) :  s  ==inert==>  s' --a--> t,
                                a != tau  or  block(t) != block(s) }

For the divergence-sensitive variant (used to verify lock-freedom,
Theorems 5.8/5.9) the signature additionally contains a divergence
marker when the state can reach, via inert steps, a silent cycle inside
its own block -- this is exactly Definition 5.4's partition-relative
divergence.

The coarsest stable partition is the partition induced by the largest
(divergence-sensitive) branching bisimulation.  It is computed by the
splitter-queue engine (:func:`repro.core.splitter.branching_splitter`);
:func:`_branching_signatures_ordered` evaluates one round of the
signatures above in decoded form for the diagnostics layer
(:mod:`repro.core.diagnostics`), which inspects individual signature
elements.

``reduce=True`` additionally compresses the system with
:func:`repro.core.reduce.reduce_lts` before refining and lifts the
partition back through the compression map.  The pass is only applied
when no seed partition is given: a seed may separate states the
reduction merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from . import reduce as reduce_mod
from .graphs import cyclic_components
from .lts import TAU_ID, AnyLTS, FrozenLTS, disjoint_union, ensure_frozen
from .partition import BlockMap, normalize, num_blocks
from .splitter import branching_splitter
from ..util.metrics import stage

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats

#: Marker added to the signature of partition-relative divergent states.
DIVERGENCE_MARK = ("__divergent__",)


def _branching_signatures_ordered(lts: AnyLTS, block_of: BlockMap, divergence: bool):
    """One round of branching signatures as frozensets of ``(a, block)``.

    Used by the diagnostics layer, which inspects individual signature
    elements to explain why two states are inequivalent.
    """
    n = lts.num_states
    inert: List[List[int]] = [[] for _ in range(n)]
    for src, aid, dst in lts.transitions():
        if aid == TAU_ID and block_of[src] == block_of[dst]:
            inert[src].append(dst)

    comp_of, num_comps, cyclic = cyclic_components(inert)

    members: List[List[int]] = [[] for _ in range(num_comps)]
    for state in range(n):
        members[comp_of[state]].append(state)

    comp_sig: List[set] = [set() for _ in range(num_comps)]
    for src, aid, dst in lts.transitions():
        if aid == TAU_ID and block_of[src] == block_of[dst]:
            continue
        comp_sig[comp_of[src]].add((aid, block_of[dst]))

    if divergence:
        for comp in range(num_comps):
            if cyclic[comp]:
                comp_sig[comp].add(DIVERGENCE_MARK)

    # Accumulate in increasing component id: successors are complete first.
    for comp in range(num_comps):
        sig = comp_sig[comp]
        for src in members[comp]:
            for dst in inert[src]:
                dst_comp = comp_of[dst]
                if dst_comp != comp:
                    sig |= comp_sig[dst_comp]

    frozen = [frozenset(sig) for sig in comp_sig]
    return [frozen[comp_of[state]] for state in range(n)]


def _refine(
    frozen: FrozenLTS,
    divergence: bool,
    initial: Optional[BlockMap],
    stats: Optional["Stats"],
    budget: Optional["RunBudget"],
) -> BlockMap:
    """Run the splitter engine inside the refinement stage.

    Deliberately does *not* record the ``blocks`` counter:
    :func:`branching_partition` derives it from the partition it
    actually returns, so the ``reduce=True`` path reports the lifted
    block count rather than the inner compressed run's.
    """
    if stats is None:
        return branching_splitter(
            frozen, divergence=divergence, initial=initial, budget=budget
        )
    with stats.stage("refinement"):
        return branching_splitter(
            frozen, divergence=divergence, initial=initial,
            budget=budget, stats=stats,
        )


def branching_partition(
    lts: AnyLTS,
    divergence: bool = False,
    initial: Optional[BlockMap] = None,
    stats: Optional["Stats"] = None,
    reduce: bool = False,
    budget: Optional["RunBudget"] = None,
) -> BlockMap:
    """Partition of the states of ``lts`` under branching bisimilarity.

    With ``divergence=True`` the partition is that of divergence-
    sensitive branching bisimilarity (Definition 5.5).  With
    ``reduce=True`` (and no seed partition) the system is first
    compressed by :func:`repro.core.reduce.reduce_lts` and the
    partition of the compressed system is lifted back.  An optional
    :class:`~repro.util.metrics.Stats` sink times the stages and counts
    splits; without one the code path is unchanged.  The ``blocks``
    counter always reflects the partition returned to the caller --
    under ``reduce=True`` that is the lifted partition of the original
    state space, not the compressed inner run.
    """
    frozen = ensure_frozen(lts)
    if reduce and initial is None and frozen.num_states:
        reduced = reduce_mod.reduce_lts(
            frozen, divergence=divergence, stats=stats, budget=budget
        )
        inner = _refine(
            ensure_frozen(reduced.lts), divergence, None, stats, budget
        )
        block_of = normalize(reduce_mod.lift_partition(reduced, inner))
    else:
        block_of = normalize(
            _refine(frozen, divergence, initial, stats, budget)
        )
    if stats is not None:
        with stats.stage("refinement"):
            stats.count("blocks", num_blocks(block_of))
    return block_of


@dataclass
class Comparison:
    """Result of comparing two LTSs up to an equivalence.

    Attributes
    ----------
    equivalent:
        Whether the two initial states are related.
    union:
        The disjoint union the partition was computed on (frozen).
    block_of:
        The partition of the union's states.
    init_a, init_b:
        Images of the two initial states inside the union.
    """

    equivalent: bool
    union: FrozenLTS
    block_of: BlockMap
    init_a: int
    init_b: int


def compare_branching(
    a: AnyLTS,
    b: AnyLTS,
    divergence: bool = False,
    stats: Optional["Stats"] = None,
    reduce: bool = False,
    budget: Optional["RunBudget"] = None,
) -> Comparison:
    """Decide ``a ~ b`` for (divergence-sensitive) branching bisimilarity.

    Two object systems are branching bisimilar iff their initial states
    are related in the disjoint union (Section IV / Definition 5.5).
    """
    with stage(stats, "union"):
        union, init_a, init_b = disjoint_union(a, b)
    block_of = branching_partition(
        union, divergence=divergence, stats=stats, reduce=reduce,
        budget=budget,
    )
    return Comparison(
        equivalent=block_of[init_a] == block_of[init_b],
        union=union,
        block_of=block_of,
        init_a=init_a,
        init_b=init_b,
    )
