"""Graph utilities: iterative Tarjan SCC and topological propagation.

Used for the inert-tau analysis inside branching-bisimulation sweeps
(signatures propagate along silent transitions that stay inside one
block) and for divergence detection (tau-cycles).  The silent-cycle
rule over adjacency lists lives here once (:func:`cyclic_components`),
and so does Definition 5.4's partition-relative divergence built on it
(:func:`divergence_marks`); the CSR form of the rule, for the
refinement hot path, is :func:`repro.core.reduce.condense_silent_sccs`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple


def tarjan_scc(num_nodes: int, successors: Callable[[int], Iterable[int]]) -> Tuple[List[int], int]:
    """Iterative Tarjan strongly-connected components.

    Returns ``(comp_of, num_comps)``.  Components are numbered in the
    order Tarjan completes them, which is a *reverse topological* order
    of the condensation: every edge between distinct components goes
    from a higher component id to a lower one.  Propagating information
    in increasing component order therefore visits successors first.
    """
    comp_of = [-1] * num_nodes
    index_of = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: List[int] = []
    next_index = 0
    num_comps = 0

    for root in range(num_nodes):
        if index_of[root] != -1:
            continue
        # Explicit DFS stack of (node, iterator over successors).
        work: List[Tuple[int, Iterable[int]]] = [(root, iter(successors(root)))]
        index_of[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if index_of[succ] == -1:
                    index_of[succ] = low[succ] = next_index
                    next_index += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if on_stack[succ]:
                    if index_of[succ] < low[node]:
                        low[node] = index_of[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp_of[member] = num_comps
                    if member == node:
                        break
                num_comps += 1
    return comp_of, num_comps


def cyclic_components(
    successors: Sequence[Sequence[int]],
) -> Tuple[List[int], int, List[bool]]:
    """Tarjan components of adjacency lists, and which of them hold a cycle.

    Returns ``(comp_of, num_comps, cyclic)``, numbered as by
    :func:`tarjan_scc`.  A component holds a cycle iff one of its edges
    stays inside it, which covers components of two or more nodes and
    single nodes with a self-loop alike.
    """
    comp_of, num_comps = tarjan_scc(len(successors), successors.__getitem__)
    cyclic = [False] * num_comps
    for src, succs in enumerate(successors):
        comp = comp_of[src]
        if not cyclic[comp]:
            for dst in succs:
                if comp_of[dst] == comp:
                    cyclic[comp] = True
                    break
    return comp_of, num_comps, cyclic


def divergence_marks(
    successors: Sequence[Sequence[int]], block_of: Sequence[int]
) -> List[bool]:
    """Definition 5.4's divergence relative to the partition ``block_of``.

    A node is marked iff it can reach, along edges that stay inside its
    block, a cyclic component of those edges, i.e. iff an infinite path
    from it never leaves its block.  With one block this is plain
    divergence: an infinite path at all.
    """
    inert = [
        [dst for dst in succs if block_of[dst] == block_of[src]]
        for src, succs in enumerate(successors)
    ]
    comp_of, num_comps, marked = cyclic_components(inert)
    # Increasing component order visits every successor component first.
    for src in sorted(range(len(inert)), key=comp_of.__getitem__):
        comp = comp_of[src]
        if not marked[comp]:
            for dst in inert[src]:
                if marked[comp_of[dst]]:
                    marked[comp] = True
                    break
    return [marked[comp] for comp in comp_of]


def reachability_closure(num_nodes: int, successors: Sequence[Sequence[int]]) -> List[frozenset]:
    """For every node, the set of nodes reachable by zero or more edges.

    Computed on the SCC condensation so shared suffixes are reused.
    """
    comp_of, num_comps = tarjan_scc(num_nodes, lambda s: successors[s])
    members: List[List[int]] = [[] for _ in range(num_comps)]
    for node in range(num_nodes):
        members[comp_of[node]].append(node)
    comp_reach: List[set] = [set() for _ in range(num_comps)]
    for comp in range(num_comps):
        reach = comp_reach[comp]
        reach.update(members[comp])
        for src in members[comp]:
            for dst in successors[src]:
                if comp_of[dst] != comp:
                    reach |= comp_reach[comp_of[dst]]
    frozen = [frozenset(reach) for reach in comp_reach]
    return [frozen[comp_of[node]] for node in range(num_nodes)]


class LazyReachabilityClosure:
    """:func:`reachability_closure`, one node at a time, on first use.

    ``closures[node]`` equals ``reachability_closure(n, successors)[node]``
    and is computed by the first lookup of ``node``, by a search that
    stops at every node whose closure is known.  The members of one SCC
    share one set, as in the eager function: a later member's search
    reaches an earlier one, and a known closure that contains the
    searching node belongs to its own SCC.
    """

    __slots__ = ("_successors", "_closure")

    def __init__(self, successors: Sequence[Sequence[int]]) -> None:
        self._successors = successors
        self._closure: List[Optional[frozenset]] = [None] * len(successors)

    def __getitem__(self, node: int) -> frozenset:
        closure = self._closure[node]
        if closure is None:
            closure = self._close(node)
        return closure

    def _close(self, root: int) -> frozenset:
        successors = self._successors
        closure = self._closure
        reach = {root}
        stack = [root]
        while stack:
            for dst in successors[stack.pop()]:
                if dst in reach:
                    continue
                known = closure[dst]
                if known is None:
                    reach.add(dst)
                    stack.append(dst)
                elif root in known:
                    # dst reaches root: one SCC, one closure.
                    closure[root] = known
                    return known
                else:
                    reach |= known
        shared = closure[root] = frozenset(reach)
        return shared
