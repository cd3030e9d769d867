"""Silent-structure compression: tau-SCC condensation + strong tau-confluence.

This is a *pre-minimization*: :func:`reduce_lts` shrinks an object
system to a branching-bisimilar one before the expensive signature
refinement runs, in two layers.

1.  **Inert tau-SCC condensation.**  All states of a silent strongly
    connected component are branching bisimilar (each can silently reach
    every behaviour of the others; van Glabbeek-Luttik-Trcka), so each
    tau-SCC collapses to one state and intra-component silent steps
    disappear.  Components that contained a silent cycle (size > 1, or
    a tau self-loop) are *marked*: in the divergence-sensitive variant
    the mark is exactly a fresh-visible-self-loop in the cycle-marked
    system, which is how the reference oracles decide DSBB.

2.  **Strong tau-confluence compression** (after Groote & van de Pol).
    On the condensed system -- whose silent edges now form a DAG -- we
    compute the greatest set ``T`` of silent edges ``s --tau--> t``
    such that every other edge ``s --b--> u`` closes a diamond:

    * ``t --b--> u``                     (the step commutes on the nose),
    * ``t --b--> v`` and ``u --tau--> v`` in ``T``   (one confluent step
      closes it), or
    * ``b = tau`` and ``u --tau--> t`` in ``T``      (both silent steps
      converge on ``t``).

    In divergence mode an edge additionally requires
    ``marked(s) => marked(t)``: this is precisely the diamond condition
    for the divergence self-loop of the cycle-marked system, so marks
    only ever flow onto states that carry them too.  ``T`` is computed
    by iterated deletion (a greatest fixpoint), starting from all
    condensed silent edges; each round re-checks every candidate's
    diamonds at once in NumPy array operations.

    A ``T``-edge is inert -- its endpoints are branching bisimilar (in
    divergence mode: divergence-sensitively, because marks propagate) --
    so every state is replaced by the ``T``-terminal state reached by
    following ``T`` edges.  The reduced system keeps only the terminals
    and their own out-edges, with targets mapped through the same
    replacement; in divergence mode a marked terminal keeps an explicit
    tau self-loop so downstream DSBB refinement re-derives the
    divergence.  No spurious silent cycle can appear: the replacement
    map follows the condensed silent DAG forward, so a cycle in the
    reduced system would lift to a cycle in that DAG.

The pass is only sound for the *coarsest* (divergence-sensitive)
branching bisimulation: a caller-supplied seed partition may separate
states that the reduction merges, so the refinement entry points apply
it only when no initial partition is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .graphs import tarjan_scc
from .lts import LTS, TAU_ID, AnyLTS, FrozenLTS, ensure_frozen
from .partition import BlockMap

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats


@dataclass
class ReducedLTS:
    """A compressed system plus the maps back to the original.

    Attributes
    ----------
    lts:
        The reduced system (frozen).
    state_of:
        For every original state, its image in the reduced system.
    representative:
        For every reduced state, one original state that maps to it.
    divergent:
        For every reduced state, whether its class contained a silent
        cycle (meaningful when the pass ran divergence-sensitively).
    states_removed, transitions_removed:
        Size deltas against the (frozen, deduplicated) input.
    """

    lts: FrozenLTS
    state_of: List[int]
    representative: List[int]
    divergent: List[bool]
    states_removed: int
    transitions_removed: int


def lift_partition(reduced: ReducedLTS, block_of: BlockMap) -> BlockMap:
    """Pull a partition of the reduced system back to the original states."""
    state_of = reduced.state_of
    return [block_of[state_of[s]] for s in range(len(state_of))]


def reduce_lts(
    lts: AnyLTS,
    divergence: bool = False,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> ReducedLTS:
    """Compress ``lts`` to a (divergence-sensitive) branching-bisimilar system.

    ``budget``, when given, is checked during the confluence fixpoint
    under phase ``"reduce"``.
    """
    if stats is None:
        return _reduce(ensure_frozen(lts), divergence, budget)
    with stats.stage("reduce"):
        reduced = _reduce(ensure_frozen(lts), divergence, budget)
        stats.count("states_removed", reduced.states_removed)
        stats.count("transitions_removed", reduced.transitions_removed)
    return reduced


def _ragged_arange(np, starts, counts):
    """Concatenation of ``arange(starts[i], starts[i]+counts[i])``."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    group_start = np.cumsum(counts) - counts
    return np.repeat(starts, counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(group_start, counts)
    )


def _reduce(
    frozen: FrozenLTS,
    divergence: bool,
    budget: Optional["RunBudget"] = None,
) -> ReducedLTS:
    """Both layers of the pass (module docstring), with the per-candidate
    diamond checks batched into array operations.  Static facts (a co-edge closed by an existing
    ``t --b--> u`` edge) are resolved once; only the diamonds that
    depend on the evolving confluent set ``T`` are re-evaluated per
    Jacobi sweep."""
    # Imported here, not at module level: commands that never reduce
    # (list, explore, lin --on-the-fly) skip NumPy's import cost.
    import numpy as np

    n = frozen.num_states
    if n == 0:
        empty = LTS()
        for label in frozen.action_labels[1:]:
            empty.action_id(label)
        return ReducedLTS(empty.freeze(), [], [], [], 0, 0)

    # -- layer 1: condense inert tau-SCCs ------------------------------
    tau_adj = frozen.tau_adjacency()
    comp_list, C = tarjan_scc(n, lambda s: tau_adj[s])
    comp_of = np.asarray(comp_list, dtype=np.int64)
    A = len(frozen.action_labels)
    AC = A * C

    esrc_a, eact_a, edst_a = frozen.edge_arrays()
    esrc = np.frombuffer(esrc_a, dtype=np.int64)
    eact = np.frombuffer(eact_a, dtype=np.int64)
    edst = np.frombuffer(edst_a, dtype=np.int64)
    csrc_all = comp_of[esrc]
    cdst_all = comp_of[edst]

    marked = np.bincount(comp_of, minlength=C) > 1
    intra = (eact == TAU_ID) & (csrc_all == cdst_all)
    marked[csrc_all[intra]] = True

    E = np.unique(csrc_all[~intra] * AC + eact[~intra] * C + cdst_all[~intra])
    M = len(E)
    srcs = E // AC
    rems = E - srcs * AC
    acts = rems // C
    dsts = rems - acts * C

    # -- layer 2: greatest confluent set T over the condensed tau DAG --
    cand_mask = acts == TAU_ID
    if divergence:
        cand_mask &= ~marked[srcs] | marked[dsts]
    cand_idx = np.nonzero(cand_mask)[0]
    cand_codes = E[cand_idx]  # sorted: source-major, then target
    cand_s = srcs[cand_idx]
    cand_t = dsts[cand_idx]
    K = len(cand_idx)

    # Pair every candidate with the co-edges of its source.
    ptr = np.searchsorted(srcs, np.arange(C + 1, dtype=np.int64))
    counts = ptr[cand_s + 1] - ptr[cand_s]
    pair_cand = np.repeat(np.arange(K, dtype=np.int64), counts)
    pair_edge = _ragged_arange(np, ptr[cand_s], counts)
    pair_b = acts[pair_edge]
    pair_u = dsts[pair_edge]
    pair_t = cand_t[pair_cand]
    not_self = (pair_b != TAU_ID) | (pair_u != pair_t)

    # Static closure: t --b--> u is an edge of the condensed system.
    code1 = pair_t * AC + pair_b * C + pair_u
    i1 = np.minimum(np.searchsorted(E, code1), max(M - 1, 0))
    closed1 = (E[i1] == code1) if M else np.zeros(len(code1), dtype=bool)

    dyn = not_self & ~closed1
    pair_cand = pair_cand[dyn]
    pair_b = pair_b[dyn]
    pair_u = pair_u[dyn]
    pair_t = pair_t[dyn]
    P = len(pair_cand)

    # Dynamic closure (silent co-edge converging back): (u, t) in T.
    code3 = pair_u * AC + pair_t
    j3 = np.minimum(np.searchsorted(cand_codes, code3), max(K - 1, 0))
    has3 = (
        (pair_b == TAU_ID) & (cand_codes[j3] == code3)
        if K
        else np.zeros(P, dtype=bool)
    )

    # Dynamic closure via a witness: v in succ(t, b) with (u, v) in T.
    wbase = pair_t * AC + pair_b * C
    wlo = np.searchsorted(E, wbase)
    wcounts = np.searchsorted(E, wbase + C) - wlo
    wit_pair = np.repeat(np.arange(P, dtype=np.int64), wcounts)
    wit_edge = _ragged_arange(np, wlo, wcounts)
    wit_code = np.repeat(pair_u, wcounts) * AC + dsts[wit_edge]
    jw = np.minimum(np.searchsorted(cand_codes, wit_code), max(K - 1, 0))
    wvalid = (cand_codes[jw] == wit_code) if K else np.zeros(0, dtype=bool)
    wit_pair = wit_pair[wvalid]
    wit_cand = jw[wvalid]

    in_t = np.ones(K, dtype=bool)
    while True:
        if budget is not None:
            budget.check("reduce", states=n, candidates=int(in_t.sum()))
        closed3 = has3 & in_t[j3]
        closed2 = (
            np.bincount(wit_pair[in_t[wit_cand]], minlength=P) > 0
            if len(wit_pair)
            else np.zeros(P, dtype=bool)
        )
        failing = ~(closed3 | closed2) & in_t[pair_cand]
        kill = np.bincount(pair_cand[failing], minlength=K) > 0
        if not kill.any():
            break
        in_t &= ~kill

    # Deterministic replacement: smallest confluent successor, resolved
    # to the T-terminal by pointer doubling over the acyclic T-graph.
    sel = np.nonzero(in_t)[0]
    rep = np.arange(C, dtype=np.int64)
    if len(sel):
        sel_s = cand_s[sel]
        first_s, first_pos = np.unique(sel_s, return_index=True)
        rep[first_s] = cand_t[sel][first_pos]
        while True:
            hop = rep[rep]
            if np.array_equal(hop, rep):
                break
            rep = hop

    # -- build the reduced system --------------------------------------
    terminal_mask = rep == np.arange(C, dtype=np.int64)
    terminals = np.nonzero(terminal_mask)[0]
    num_terminals = len(terminals)
    new_id = np.full(C, -1, dtype=np.int64)
    new_id[terminals] = np.arange(num_terminals, dtype=np.int64)

    own = terminal_mask[srcs]
    out_codes = (new_id[srcs[own]] * A + acts[own]) * num_terminals + new_id[
        rep[dsts[own]]
    ]
    if divergence:
        loops = new_id[terminals[marked[terminals]]]
        out_codes = np.concatenate(
            [out_codes, (loops * A + TAU_ID) * num_terminals + loops]
        )
    out_codes = np.unique(out_codes)

    out = LTS()
    for label in frozen.action_labels[1:]:
        out.action_id(label)
    out.add_states(num_terminals)
    out.init = int(new_id[rep[comp_of[frozen.init]]])
    stride = A * num_terminals
    for code in out_codes.tolist():
        src, rem = divmod(code, stride)
        aid, dst = divmod(rem, num_terminals)
        out.add_transition_by_id(src, aid, dst)
    reduced = out.freeze()

    first_state = np.full(C, n, dtype=np.int64)
    np.minimum.at(first_state, comp_of, np.arange(n, dtype=np.int64))

    return ReducedLTS(
        lts=reduced,
        state_of=new_id[rep[comp_of]].tolist(),
        representative=first_state[terminals].tolist(),
        divergent=marked[terminals].tolist(),
        states_removed=n - reduced.num_states,
        transitions_removed=frozen.num_transitions - reduced.num_transitions,
    )
