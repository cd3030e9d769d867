"""Weak bisimulation (Milner), plain and with explicit divergence.

Section VII of the paper compares weak against branching bisimulation:
weak bisimulation does not constrain the intermediate states a silent
path passes through, so it equates the MS-queue states ``s1`` and
``s3`` of Fig. 6 that branching bisimulation distinguishes.

Signatures are computed over the *saturated* transition relation

    s  ==a==> t   iff   s ==tau*==> . --a--> . ==tau*==> t   (a visible)
    s  =======> u iff   s ==tau*==> u                        (silent)

which is partition-independent, so the tau-closures are computed once
via SCC condensation; the splitter engine
(:func:`repro.core.splitter.weak_splitter`) refines over it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .graphs import reachability_closure, tarjan_scc
from .lts import TAU_ID, AnyLTS, disjoint_union, ensure_frozen, tau_successor_lists
from .partition import BlockMap, num_blocks
from .branching import Comparison
from .splitter import weak_splitter
from ..util.metrics import stage

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats


def tau_closures(lts: AnyLTS) -> List[frozenset]:
    """For every state, the set of states reachable by zero or more taus."""
    return reachability_closure(lts.num_states, tau_successor_lists(lts))


def _weak_step_sets(lts: AnyLTS, closures: List[frozenset]) -> List[frozenset]:
    """Per state, the saturated visible steps ``{(action, target)}``."""
    n = lts.num_states
    # V[u]: visible steps from u itself, targets saturated by trailing taus.
    direct: List[set] = [set() for _ in range(n)]
    for src, aid, dst in lts.transitions():
        if aid != TAU_ID:
            steps = direct[src]
            for target in closures[dst]:
                steps.add((aid, target))
    out: List[frozenset] = []
    for state in range(n):
        acc: set = set()
        for mid in closures[state]:
            acc |= direct[mid]
        out.append(frozenset(acc))
    return out


def _divergence_marks(lts: AnyLTS, block_of: BlockMap) -> List[bool]:
    """Partition-relative divergence (Definition 5.4): a state is marked
    iff it can reach, through silent steps that stay inside its block,
    a silent cycle inside that block."""
    n = lts.num_states
    tau_succ = tau_successor_lists(lts)
    inert: List[List[int]] = [[] for _ in range(n)]
    for src in range(n):
        for dst in tau_succ[src]:
            if block_of[src] == block_of[dst]:
                inert[src].append(dst)
    comp_of, num_comps = tarjan_scc(n, lambda s: inert[s])
    members: List[List[int]] = [[] for _ in range(num_comps)]
    for state in range(n):
        members[comp_of[state]].append(state)
    divergent = [False] * num_comps
    for comp in range(num_comps):
        if len(members[comp]) > 1:
            divergent[comp] = True
    for src in range(n):
        for dst in inert[src]:
            if comp_of[src] == comp_of[dst]:
                divergent[comp_of[src]] = True
    for comp in range(num_comps):
        if divergent[comp]:
            continue
        for src in members[comp]:
            if any(divergent[comp_of[dst]] for dst in inert[src]):
                divergent[comp] = True
                break
    return [divergent[comp_of[state]] for state in range(n)]


def weak_partition(
    lts: AnyLTS,
    divergence: bool = False,
    initial: Optional[BlockMap] = None,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> BlockMap:
    """Partition of the states of ``lts`` under weak bisimilarity.

    With ``divergence=True`` this is weak bisimulation with explicit
    divergence (the variant mentioned alongside Table VII).
    """
    frozen = ensure_frozen(lts)
    if stats is None:
        return weak_splitter(
            frozen, divergence=divergence, initial=initial, budget=budget
        )
    with stats.stage("refinement"):
        block_of = weak_splitter(
            frozen, divergence=divergence, initial=initial,
            budget=budget, stats=stats,
        )
        stats.count("blocks", num_blocks(block_of))
    return block_of


def compare_weak(
    a: AnyLTS,
    b: AnyLTS,
    divergence: bool = False,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> Comparison:
    """Decide whether two LTSs are weakly bisimilar."""
    with stage(stats, "union"):
        union, init_a, init_b = disjoint_union(a, b)
    block_of = weak_partition(
        union, divergence=divergence, stats=stats, budget=budget
    )
    return Comparison(
        equivalent=block_of[init_a] == block_of[init_b],
        union=union,
        block_of=block_of,
        init_a=init_a,
        init_b=init_b,
    )
