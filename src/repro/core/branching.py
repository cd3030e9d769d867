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
splitter-queue engine (:func:`repro.core.splitter.branching_splitter`),
which can record its splits for the diagnostics layer
(:mod:`repro.core.diagnostics`) to replay.

``reduce=True`` additionally compresses the system with
:func:`repro.core.reduce.reduce_lts` before refining and lifts the
partition, and the split log when one is kept, back through the
compression map.  The pass is only applied when no seed partition is
given: a seed may separate states the reduction merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import reduce as reduce_mod
from .lts import AnyLTS, FrozenLTS, disjoint_union, ensure_frozen
from .partition import BlockMap, normalize, num_blocks
from .splitter import SplitLog, branching_splitter
from ..util.metrics import stage

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats

#: Marker added to the signature of partition-relative divergent states.
DIVERGENCE_MARK = ("__divergent__",)


def _refine(
    frozen: FrozenLTS,
    divergence: bool,
    initial: Optional[BlockMap],
    stats: Optional["Stats"],
    budget: Optional["RunBudget"],
    condensation: Optional[tuple] = None,
    log: Optional[SplitLog] = None,
) -> BlockMap:
    """Run the splitter engine inside the refinement stage.

    Deliberately does *not* record the ``blocks`` counter:
    :func:`branching_partition` derives it from the partition it
    actually returns, so the ``reduce=True`` path reports the lifted
    block count rather than the inner compressed run's.
    """
    with stage(stats, "refinement"):
        return branching_splitter(
            frozen, divergence=divergence, initial=initial, budget=budget,
            stats=stats, condensation=condensation, log=log,
        )


def branching_partition(
    lts: AnyLTS,
    divergence: bool = False,
    initial: Optional[BlockMap] = None,
    stats: Optional["Stats"] = None,
    reduce: bool = False,
    budget: Optional["RunBudget"] = None,
    log: Optional[SplitLog] = None,
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
    state space, not the compressed inner run.  ``log`` receives the
    refinement's splits (:class:`~repro.core.splitter.SplitLog`) with
    ``comp_of`` over the states of ``lts``.
    """
    frozen = ensure_frozen(lts)
    if reduce and initial is None and frozen.num_states:
        reduced = reduce_mod.reduce_lts(
            frozen, divergence=divergence, stats=stats, budget=budget
        )
        inner = _refine(
            reduced.lts, divergence, None, stats, budget,
            condensation=reduced.condensation, log=log,
        )
        block_of = normalize(reduce_mod.lift_partition(reduced, inner))
        if log is not None:
            # Lift the log's component map through ``state_of``; a handed
            # condensation numbers every reduced state as itself.
            log.comp_of = (
                reduced.state_of if reduced.condensation is not None
                else reduce_mod.lift_partition(reduced, log.comp_of)
            )
    else:
        block_of = normalize(
            _refine(frozen, divergence, initial, stats, budget, log=log)
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
    log:
        For an inequivalent branching comparison, the split log of the
        refinement that decided it, over the union's states
        (:mod:`repro.core.diagnostics` explains from it); else ``None``.
    """

    equivalent: bool
    union: FrozenLTS
    block_of: BlockMap
    init_a: int
    init_b: int
    log: Optional[SplitLog] = None


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
    An inequivalent comparison keeps the refinement's split log, lifted
    to the union's states, so that :mod:`repro.core.diagnostics` can
    explain it without refining again; an equivalent one drops it.
    """
    with stage(stats, "union"):
        union, init_a, init_b = disjoint_union(a, b)
    log = SplitLog()
    block_of = branching_partition(
        union, divergence=divergence, stats=stats, reduce=reduce,
        budget=budget, log=log,
    )
    equivalent = block_of[init_a] == block_of[init_b]
    return Comparison(
        equivalent=equivalent,
        union=union,
        block_of=block_of,
        init_a=init_a,
        init_b=init_b,
        log=None if equivalent else log,
    )
