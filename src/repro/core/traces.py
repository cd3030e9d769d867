"""Traces, trace refinement and trace-language partitions.

Trace refinement (Definition 2.2) is the linear-time relation that
exactly captures linearizability (Theorem 2.3): every history of the
implementation must be a history of the linearizable specification.
The paper checks it on the branching-bisimulation quotients
(Theorem 5.3), which keeps the PSPACE-complete inclusion check
tractable in practice.

The inclusion checker here is an on-the-fly antichain-pruned subset
construction with counterexample extraction: a failed check yields the
shortest offending history (e.g. the HM lock-free list removing the
same key twice, Section VI.F).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
)

from .graphs import LazyReachabilityClosure, reachability_closure
from .lts import TAU_ID, AnyLTS, tau_successor_lists
from .partition import BlockMap, partition_from_key

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats


@dataclass
class RefinementResult:
    """Outcome of a trace-refinement check.

    ``holds`` is whether every trace of the implementation is a trace
    of the specification.  When it fails, ``counterexample`` is a
    shortest trace (list of visible action labels) of the
    implementation that the specification cannot produce.
    """

    holds: bool
    counterexample: Optional[List[Hashable]] = None

    def render_counterexample(self) -> str:
        if self.counterexample is None:
            return "<no counterexample: refinement holds>"
        lines = ["<initial state>"]
        for label in self.counterexample:
            lines.append(f'  "{label}"')
        lines.append("  -- specification cannot match the last action --")
        return "\n".join(lines)


def trace_refines(
    impl: AnyLTS,
    spec: AnyLTS,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
) -> RefinementResult:
    """Decide ``impl ⊑_tr spec`` (Definition 2.2), with counterexample.

    Both systems must use structurally equal visible action labels.
    The check walks the implementation while tracking the tau-closed
    set of specification states reachable by the same trace; a visible
    implementation step with no specification match is a violation.
    Pairs ``(s, Q)`` subsumed by an already-visited ``(s, Q')`` with
    ``Q' ⊆ Q`` are pruned (antichain optimization).

    ``stats`` (optional) records the antichain size and visited-pair
    count under a ``check`` stage; the search loop is untouched --
    everything is derived after it finishes.  ``budget`` (optional) is
    checked once per dequeued pair under phase ``"check"``.
    """
    if stats is None:
        return _trace_refines(impl, spec, None, budget)
    with stats.stage("check"):
        return _trace_refines(impl, spec, stats, budget)


def _trace_refines(
    impl: AnyLTS,
    spec: AnyLTS,
    stats: Optional["Stats"],
    budget: Optional["RunBudget"] = None,
) -> RefinementResult:
    # Closed on first use: the search reads a fraction of the states.
    spec_closures = LazyReachabilityClosure(tau_successor_lists(spec))
    # One pass over the rows: a parsed file is never frozen for a trace
    # check (its CSR build costs more than these lists).
    impl_succ: List[List[Tuple[int, int]]] = [[] for _ in range(impl.num_states)]
    for src, aid, dst in impl.transitions():
        impl_succ[src].append((aid, dst))

    # Specification visible steps, indexed by (state, impl action id).
    label_to_impl_aid: Dict[Hashable, int] = {}
    for aid, label in enumerate(impl.action_labels):
        if aid != TAU_ID:
            label_to_impl_aid[label] = aid
    spec_vis: Dict[Tuple[int, int], List[int]] = {}
    for src, aid, dst in spec.transitions():
        if aid == TAU_ID:
            continue
        impl_aid = label_to_impl_aid.get(spec.action_labels[aid])
        if impl_aid is None:
            continue  # spec action the implementation never performs
        spec_vis.setdefault((src, impl_aid), []).append(dst)

    def visible_post(states: FrozenSet[int], impl_aid: int) -> FrozenSet[int]:
        acc: Set[int] = set()
        for q in states:
            for dst in spec_vis.get((q, impl_aid), ()):
                acc |= spec_closures[dst]
        return frozenset(acc)

    start = (impl.init, spec_closures[spec.init])
    # Antichain of visited spec-sets per implementation state.
    visited: Dict[int, List[FrozenSet[int]]] = {impl.init: [start[1]]}
    parents: Dict[Tuple[int, FrozenSet[int]], Tuple[Optional[Tuple[int, FrozenSet[int]]], Optional[Hashable]]] = {
        start: (None, None)
    }
    queue: deque = deque([start])

    def subsumed(state: int, spec_set: FrozenSet[int]) -> bool:
        for existing in visited.get(state, ()):
            if existing <= spec_set:
                return True
        return False

    def record(state: int, spec_set: FrozenSet[int]) -> None:
        chain = visited.setdefault(state, [])
        chain[:] = [existing for existing in chain if not (spec_set <= existing)]
        chain.append(spec_set)

    while queue:
        if budget is not None and budget.armed:
            budget.check("check", pairs=len(parents), queued=len(queue))
        node = queue.popleft()
        state, spec_set = node
        for aid, dst in impl_succ[state]:
            if aid == TAU_ID:
                succ = (dst, spec_set)
                if subsumed(dst, spec_set):
                    continue
                record(dst, spec_set)
                parents[succ] = (node, None)
                queue.append(succ)
                continue
            label = impl.action_labels[aid]
            new_set = visible_post(spec_set, aid)
            if not new_set:
                # Violation: reconstruct the trace.
                trace: List[Hashable] = [label]
                cursor: Optional[Tuple[int, FrozenSet[int]]] = node
                while cursor is not None:
                    parent, step_label = parents[cursor]
                    if step_label is not None:
                        trace.append(step_label)
                    cursor = parent
                trace.reverse()
                if stats is not None:
                    _count_refinement(stats, visited, parents)
                return RefinementResult(holds=False, counterexample=trace)
            succ = (dst, new_set)
            if subsumed(dst, new_set):
                continue
            record(dst, new_set)
            parents[succ] = (node, label)
            queue.append(succ)
    if stats is not None:
        _count_refinement(stats, visited, parents)
    return RefinementResult(holds=True)


def _count_refinement(stats: "Stats", visited: Dict, parents: Dict) -> None:
    """Post-search bookkeeping for :func:`trace_refines` (never in-loop)."""
    stats.count("visited_pairs", len(parents))
    stats.count("antichain_size", sum(len(chain) for chain in visited.values()))


def trace_equivalent(a: AnyLTS, b: AnyLTS) -> bool:
    """Whether two systems have the same trace sets (mutual refinement)."""
    return trace_refines(a, b).holds and trace_refines(b, a).holds


# ----------------------------------------------------------------------
# Trace-language partitions (used by the k-trace hierarchy)
# ----------------------------------------------------------------------

SymbolFn = Callable[[int, int, int], Optional[Hashable]]


def language_partition(lts: AnyLTS, symbol_of: SymbolFn) -> BlockMap:
    """Group states by the language of an on-the-fly relabelled system.

    ``symbol_of(src, action_id, dst)`` maps each transition to an output
    symbol, or ``None`` for an invisible (epsilon) move.  Two states
    land in the same block iff the sets of finite symbol sequences
    emitted from them coincide.  Decided by subset construction over
    interned symbols, then minimisation of the (all-accepting,
    prefix-closed) DFA on the splitter's Paige-Tarjan core: on a
    deterministic automaton strong bisimilarity is language equivalence.
    """
    # Imported here: ``compare --relation trace`` loads this module but
    # never refines a partition.
    from .splitter import _pt_refine

    n = lts.num_states
    eps_succ: List[List[int]] = [[] for _ in range(n)]
    symbol_ids: Dict[Hashable, int] = {}
    symbolic: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for src, aid, dst in lts.transitions():
        symbol = symbol_of(src, aid, dst)
        if symbol is None:
            eps_succ[src].append(dst)
        else:
            symbolic[src].append(
                (symbol_ids.setdefault(symbol, len(symbol_ids)), dst)
            )
    closures = reachability_closure(n, eps_succ)

    def closure_of(states: Set[int]) -> FrozenSet[int]:
        acc: Set[int] = set()
        for state in states:
            acc |= closures[state]
        return frozenset(acc)

    # Subset construction from every state's closure; the DFA's edges
    # are collected as columns for the refinement core.
    subset_ids: Dict[FrozenSet[int], int] = {}
    subsets: List[FrozenSet[int]] = []

    def intern(subset: FrozenSet[int]) -> Tuple[int, bool]:
        sid = subset_ids.get(subset)
        if sid is None:
            sid = len(subsets)
            subset_ids[subset] = sid
            subsets.append(subset)
            return sid, True
        return sid, False

    start_of_state: List[int] = []
    work: List[int] = []
    for state in range(n):
        sid, is_new = intern(closures[state])
        start_of_state.append(sid)
        if is_new:
            work.append(sid)
    esrc: List[int] = []
    esym: List[int] = []
    edst: List[int] = []
    while work:
        sid = work.pop()
        moves: Dict[int, Set[int]] = {}
        for q in subsets[sid]:
            for symbol, dst in symbolic[q]:
                moves.setdefault(symbol, set()).add(dst)
        for symbol, targets in moves.items():
            tid, is_new = intern(closure_of(targets))
            esrc.append(sid)
            esym.append(symbol)
            edst.append(tid)
            if is_new:
                work.append(tid)

    dfa_blocks = _pt_refine(len(subsets), esrc, esym, edst)
    return partition_from_key([dfa_blocks[start_of_state[s]] for s in range(n)])


def trace_partition(lts: AnyLTS) -> BlockMap:
    """Partition of states by ordinary trace equivalence (1-traces)."""
    return language_partition(
        lts,
        lambda src, aid, dst: None if aid == TAU_ID else aid,
    )
