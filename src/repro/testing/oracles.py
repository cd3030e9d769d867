"""Slow-but-obviously-correct reference semantics for the equivalences.

Every checker in this module is written straight from the relational
definitions in the paper (Definitions 2.1/2.2 for traces and trace
refinement, Definition 4.1 for branching bisimulation, Definition 5.4/5.5
for the divergence-sensitive variant) as a naive greatest-fixed-point
computation over explicit pair sets.  Nothing here shares an algorithm
with :mod:`repro.core`: no signature refinement, no SCC condensation, no
antichain pruning, no interning tricks.  The implementations are
quadratic-to-quartic and only usable on small systems, which is exactly
the point -- they are the oracles the fast engine is differentially
tested against (see :mod:`repro.testing.differential`).

Only the :class:`~repro.core.lts.FrozenLTS` container itself is imported
from the core package; it is the shared data format, not a shared
algorithm.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..core.lts import TAU_ID, FrozenLTS, make_lts
from ..util.budget import RunBudget

Relation = Set[Tuple[int, int]]

#: Per-pair transfer condition: ``check(s, t, rel)`` decides whether the
#: moves of ``s`` can be answered by ``t`` under the candidate relation.
TransferFn = Callable[[FrozenLTS, int, int, Relation], bool]


# ----------------------------------------------------------------------
# shared plumbing (plain BFS -- deliberately no SCC machinery)
# ----------------------------------------------------------------------

def tau_reachable(lts: FrozenLTS, state: int) -> List[int]:
    """States reachable from ``state`` by zero or more silent steps."""
    seen = [state]
    stack = [state]
    while stack:
        cur = stack.pop()
        for aid, dst in lts.successors(cur):
            if aid == TAU_ID and dst not in seen:
                seen.append(dst)
                stack.append(dst)
    return seen


def _all_tau_reach(lts: FrozenLTS) -> List[List[int]]:
    return [tau_reachable(lts, s) for s in range(lts.num_states)]


def _greatest_fixed_point(
    lts: FrozenLTS,
    transfer: TransferFn,
    initial: Optional[List[int]] = None,
    budget: Optional[RunBudget] = None,
) -> Relation:
    """The largest symmetric relation closed under ``transfer``.

    Starts from the full relation ``S x S`` (or, with ``initial``, from
    the pairs lying in the same initial block) and repeatedly deletes
    pairs whose transfer condition fails in either direction, until
    nothing changes.  This is the textbook co-inductive approximation
    sequence; on a finite lattice it terminates in the greatest fixed
    point -- the largest bisimulation contained in the seed, which for
    an equivalence seed is itself an equivalence (bisimulations are
    closed under composition) and coincides with the engine's coarsest
    stable refinement of the same seed.
    """
    n = lts.num_states
    if initial is None:
        rel: Relation = {(s, t) for s in range(n) for t in range(n)}
    else:
        rel = {
            (s, t)
            for s in range(n)
            for t in range(n)
            if initial[s] == initial[t]
        }
    changed = True
    while changed:
        if budget is not None:
            budget.check("check", states=n, pairs=len(rel))
        changed = False
        for pair in sorted(rel):
            s, t = pair
            if pair not in rel:
                continue
            if not transfer(lts, s, t, rel) or not transfer(lts, t, s, rel):
                rel.discard((s, t))
                rel.discard((t, s))
                changed = True
    return rel


# ----------------------------------------------------------------------
# strong bisimulation
# ----------------------------------------------------------------------

def _strong_transfer(lts: FrozenLTS, s: int, t: int, rel: Relation) -> bool:
    for aid, s2 in lts.successors(s):
        if not any(
            aid2 == aid and (s2, t2) in rel for aid2, t2 in lts.successors(t)
        ):
            return False
    return True


def strong_bisimulation_relation(
    lts: FrozenLTS,
    initial: Optional[List[int]] = None,
    budget: Optional[RunBudget] = None,
) -> Relation:
    """Greatest strong bisimulation (tau is an ordinary action).

    With ``initial`` (a block map), the greatest strong bisimulation
    that only relates states within the same initial block.
    """
    return _greatest_fixed_point(
        lts, _strong_transfer, initial=initial, budget=budget
    )


# ----------------------------------------------------------------------
# weak bisimulation (Milner)
# ----------------------------------------------------------------------

def weak_bisimulation_relation(
    lts: FrozenLTS,
    initial: Optional[List[int]] = None,
    budget: Optional[RunBudget] = None,
) -> Relation:
    """Greatest weak bisimulation.

    ``s --a--> s'`` must be matched by ``t ==tau*==> . --a--> . ==tau*==> t'``
    for visible ``a``, and by ``t ==tau*==> t'`` (possibly staying put)
    for ``a = tau``, with ``(s', t')`` again related.
    """
    reach = _all_tau_reach(lts)

    def transfer(lts: FrozenLTS, s: int, t: int, rel: Relation) -> bool:
        for aid, s2 in lts.successors(s):
            if aid == TAU_ID:
                if any((s2, t2) in rel for t2 in reach[t]):
                    continue
                return False
            ok = False
            for mid in reach[t]:
                for aid2, hit in lts.successors(mid):
                    if aid2 != aid:
                        continue
                    if any((s2, t2) in rel for t2 in reach[hit]):
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return False
        return True

    return _greatest_fixed_point(lts, transfer, initial=initial, budget=budget)


# ----------------------------------------------------------------------
# branching bisimulation (Definition 4.1, van Glabbeek & Weijland)
# ----------------------------------------------------------------------

def _branching_transfer(lts: FrozenLTS, s: int, t: int, rel: Relation) -> bool:
    """``s --a--> s'`` is answered by ``t`` as in Definition 4.1:

    either ``a = tau`` and ``(s', t)`` already related, or
    ``t ==tau*==> t_hat --a--> t'`` with ``(s, t_hat)`` and ``(s', t')``
    related.
    """
    for aid, s2 in lts.successors(s):
        if aid == TAU_ID and (s2, t) in rel:
            continue
        ok = False
        for t_hat in tau_reachable(lts, t):
            if (s, t_hat) not in rel:
                continue
            for aid2, t2 in lts.successors(t_hat):
                if aid2 == aid and (s2, t2) in rel:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def branching_bisimulation_relation(
    lts: FrozenLTS,
    initial: Optional[List[int]] = None,
    budget: Optional[RunBudget] = None,
) -> Relation:
    """Greatest branching bisimulation (Definition 4.1)."""
    return _greatest_fixed_point(
        lts, _branching_transfer, initial=initial, budget=budget
    )


# ----------------------------------------------------------------------
# divergence-sensitive branching bisimulation (Definitions 5.4 / 5.5)
# ----------------------------------------------------------------------

def diverges_within(lts: FrozenLTS, start: int, allowed: Set[int]) -> bool:
    """Whether an infinite silent path from ``start`` stays in ``allowed``.

    In a finite system such a path exists iff ``start`` belongs to the
    largest subset ``W`` of ``allowed`` in which every state keeps a
    silent successor inside ``W`` (computed by iterated deletion).  This
    is Definition 5.4's "divergence relative to a set of states"; the
    differential tests use it to validate the engine's divergence
    markers against the final classes.
    """
    if start not in allowed:
        return False
    alive = set(allowed)
    changed = True
    while changed:
        changed = False
        for state in list(alive):
            if not any(
                aid == TAU_ID and dst in alive
                for aid, dst in lts.successors(state)
            ):
                alive.discard(state)
                changed = True
    return start in alive


def tau_cycle_states_naive(lts: FrozenLTS) -> Set[int]:
    """States lying on a silent cycle (a ``tau``-path back to themselves)."""
    out: Set[int] = set()
    for state in range(lts.num_states):
        for aid, dst in lts.successors(state):
            if aid == TAU_ID and state in tau_reachable(lts, dst):
                out.add(state)
                break
    return out


#: Fresh visible label marking divergent states in the reduction below.
DIVERGENCE_LOOP = ("divergence-loop",)


def divergence_sensitive_branching_relation(
    lts: FrozenLTS,
    initial: Optional[List[int]] = None,
    budget: Optional[RunBudget] = None,
) -> Relation:
    """Greatest divergence-sensitive branching bisimulation (Def 5.5).

    Computed through the van Glabbeek--Luttik--Trcka reduction:
    divergence-sensitive branching bisimilarity on ``lts`` coincides
    with *plain* branching bisimilarity on the system extended with a
    fresh visible self-loop at every state lying on a silent cycle
    (in a finite system, exactly the states witnessing Definition
    5.4's divergence, since all states on a silent cycle are branching
    bisimilar and hence share a class).

    The reduction matters for soundness: Definition 5.4's relative-
    divergence condition mentions the candidate relation on both sides
    of an implication, so it is not monotone and a naive pair-deletion
    fixed point over it can delete pairs that belong in the answer.
    The marked system restores a monotone transfer condition.
    """
    if DIVERGENCE_LOOP in lts.action_labels:
        raise ValueError(f"input already uses the {DIVERGENCE_LOOP!r} label")
    transitions = [
        (src, lts.action_labels[aid], dst)
        for src, aid, dst in lts.transitions()
    ]
    transitions.extend(
        (state, DIVERGENCE_LOOP, state)
        for state in sorted(tau_cycle_states_naive(lts))
    )
    marked = make_lts(lts.num_states, lts.init, transitions)
    return _greatest_fixed_point(
        marked, _branching_transfer, initial=initial, budget=budget
    )


# ----------------------------------------------------------------------
# traces and weak-trace inclusion (Definitions 2.1 / 2.2)
# ----------------------------------------------------------------------

def tau_closure_of_set(lts: FrozenLTS, states: Set[int]) -> FrozenSet[int]:
    """Close a set of states under silent steps."""
    out: Set[int] = set()
    for state in states:
        out.update(tau_reachable(lts, state))
    return frozenset(out)


def bounded_traces(lts: FrozenLTS, start: int, max_len: int) -> Set[Tuple[Hashable, ...]]:
    """All visible traces of length <= ``max_len`` from ``start``."""
    traces: Set[Tuple[Hashable, ...]] = set()
    stack: List[Tuple[int, Tuple[Hashable, ...], int]] = [(start, (), 0)]
    seen: Set[Tuple[int, Tuple[Hashable, ...]]] = set()
    while stack:
        state, trace, length = stack.pop()
        if (state, trace) in seen:
            continue
        seen.add((state, trace))
        traces.add(trace)
        if length >= max_len:
            continue
        for aid, dst in lts.successors(state):
            if aid == TAU_ID:
                stack.append((dst, trace, length))
            else:
                label = lts.action_labels[aid]
                stack.append((dst, trace + (label,), length + 1))
    return traces


def is_trace_of(lts: FrozenLTS, trace: List[Hashable]) -> bool:
    """Whether ``trace`` is a (weak) trace of ``lts``."""
    current = tau_closure_of_set(lts, {lts.init})
    for label in trace:
        aid = lts.lookup_action(label)
        if aid is None:
            return False
        stepped = {
            dst
            for state in current
            for a, dst in lts.successors(state)
            if a == aid
        }
        if not stepped:
            return False
        current = tau_closure_of_set(lts, stepped)
    return True


def weak_trace_inclusion(
    impl: FrozenLTS,
    spec: FrozenLTS,
    budget: Optional[RunBudget] = None,
) -> Tuple[bool, Optional[List[Hashable]]]:
    """Brute-force trace refinement ``impl <= spec`` (Definition 2.2).

    A plain breadth-first product walk of the implementation against the
    determinized (subset) view of the specification -- no antichain
    pruning, no subsumption.  Returns ``(holds, counterexample)`` where
    the counterexample, when refinement fails, is a shortest visible
    trace of ``impl`` that ``spec`` cannot produce.
    """
    from collections import deque

    start = (impl.init, tau_closure_of_set(spec, {spec.init}))
    parents: Dict[
        Tuple[int, FrozenSet[int]],
        Tuple[Optional[Tuple[int, FrozenSet[int]]], Optional[Hashable]],
    ] = {start: (None, None)}
    queue = deque([start])
    while queue:
        if budget is not None:
            budget.check("check", pairs=len(parents), queued=len(queue))
        node = queue.popleft()
        state, spec_set = node
        for aid, dst in impl.successors(state):
            if aid == TAU_ID:
                succ = (dst, spec_set)
                if succ not in parents:
                    parents[succ] = (node, None)
                    queue.append(succ)
                continue
            label = impl.action_labels[aid]
            spec_aid = spec.lookup_action(label)
            stepped: Set[int] = set()
            if spec_aid is not None:
                for q in spec_set:
                    for a2, d2 in spec.successors(q):
                        if a2 == spec_aid:
                            stepped.add(d2)
            if not stepped:
                trace: List[Hashable] = [label]
                cursor: Optional[Tuple[int, FrozenSet[int]]] = node
                while cursor is not None:
                    parent, step_label = parents[cursor]
                    if step_label is not None:
                        trace.append(step_label)
                    cursor = parent
                trace.reverse()
                return False, trace
            succ = (dst, tau_closure_of_set(spec, stepped))
            if succ not in parents:
                parents[succ] = (node, label)
                queue.append(succ)
    return True, None


# ----------------------------------------------------------------------
# relation <-> partition agreement helper
# ----------------------------------------------------------------------

def relation_agrees_with_partition(
    relation: Relation, block_of: List[int]
) -> Optional[Tuple[int, int]]:
    """First state pair on which a relation and a partition disagree.

    Returns ``None`` when ``(s, t) in relation`` iff ``block_of[s] ==
    block_of[t]`` for every pair, otherwise the offending ``(s, t)``.
    """
    n = len(block_of)
    for s in range(n):
        for t in range(n):
            if ((s, t) in relation) != (block_of[s] == block_of[t]):
                return (s, t)
    return None
