"""Divergence detection and diagnostic lassos.

A lock-freedom violation in a bounded object system is an infinite
silent path, which in a finite LTS means a reachable tau-cycle
(Section V.B).  This module finds divergent states, and extracts a
*lasso* diagnostic -- a stem from the initial state followed by a
silent cycle -- in the style of CADP's output reproduced in Fig. 9.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from .graphs import tarjan_scc
from .lts import TAU_ID, AnyLTS, tau_successor_lists

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget


def tau_cycle_states(
    lts: AnyLTS, budget: Optional["RunBudget"] = None
) -> List[int]:
    """States lying on a silent cycle."""
    n = lts.num_states
    if budget is not None:
        budget.check("divergence", states=n)
    tau_succ = tau_successor_lists(lts)
    comp_of, num_comps = tarjan_scc(n, lambda s: tau_succ[s])
    size = [0] * num_comps
    for state in range(n):
        size[comp_of[state]] += 1
    return [
        state
        for state in range(n)
        if size[comp_of[state]] > 1 or state in tau_succ[state]
    ]


def divergent_states(
    lts: AnyLTS, budget: Optional["RunBudget"] = None
) -> List[bool]:
    """States with an infinite silent path (can reach a silent cycle by taus)."""
    n = lts.num_states
    tau_pred: List[List[int]] = [[] for _ in range(n)]
    for src, succs in enumerate(tau_successor_lists(lts)):
        for dst in succs:
            tau_pred[dst].append(src)
    marked = [False] * n
    queue = deque()
    for state in tau_cycle_states(lts, budget=budget):
        if not marked[state]:
            marked[state] = True
            queue.append(state)
    while queue:
        if budget is not None:
            budget.check("divergence", states=n, queued=len(queue))
        state = queue.popleft()
        for pred in tau_pred[state]:
            if not marked[pred]:
                marked[pred] = True
                queue.append(pred)
    return marked


@dataclass
class Step:
    """One transition of a diagnostic path."""

    src: int
    label: Any
    dst: int
    annotation: Any = None

    def render(self) -> str:
        if self.label == ("tau",):
            detail = f" ({self.annotation})" if self.annotation is not None else ""
            return f"i{detail}"
        return str(self.label)


@dataclass
class Lasso:
    """A divergence diagnostic: ``stem`` to a state, then a silent ``cycle``.

    Mirrors the CADP diagnostic of Fig. 9: a finite prefix of visible
    and silent steps ending in a tau-loop on which no thread returns.
    """

    stem: List[Step]
    cycle: List[Step]

    def render(self) -> str:
        lines = ["<initial state>"]
        for step in self.stem:
            lines.append(f'  "{step.render()}"')
        lines.append("  -- tau-loop (divergence) --")
        for step in self.cycle:
            lines.append(f'  "{step.render()}"')
        return "\n".join(lines)


def _shortest_path(
    lts: AnyLTS,
    sources: List[int],
    targets: set,
    tau_only: bool = False,
) -> Optional[List[Step]]:
    """BFS shortest path from any source to any target state."""
    parent: dict = {s: None for s in sources}
    queue = deque(sources)
    reached = None
    for s in sources:
        if s in targets:
            reached = s
            break
    ann_by_edge = {}
    if reached is None:
        # Precompute adjacency with annotations.
        adj: List[List[Tuple[int, int, Any]]] = [[] for _ in range(lts.num_states)]
        for src, aid, dst, ann in lts.transitions_with_annotations():
            if tau_only and aid != TAU_ID:
                continue
            adj[src].append((aid, dst, ann))
        while queue:
            state = queue.popleft()
            for aid, dst, ann in adj[state]:
                if dst not in parent:
                    parent[dst] = (state, aid, ann)
                    if dst in targets:
                        reached = dst
                        queue.clear()
                        break
                    queue.append(dst)
            if reached is not None:
                break
    if reached is None:
        return None
    steps: List[Step] = []
    cur = reached
    while parent[cur] is not None:
        prev, aid, ann = parent[cur]
        steps.append(Step(prev, lts.action_labels[aid], cur, ann))
        cur = prev
    steps.reverse()
    return steps


def _cycle_from(lts: AnyLTS, state: int) -> List[Step]:
    """A silent cycle through ``state`` (which must lie on one)."""
    adj: List[List[Tuple[int, Any]]] = [[] for _ in range(lts.num_states)]
    for src, aid, dst, ann in lts.transitions_with_annotations():
        if aid == TAU_ID:
            adj[src].append((dst, ann))
    # Self loop?
    for dst, ann in adj[state]:
        if dst == state:
            return [Step(state, lts.action_labels[TAU_ID], state, ann)]
    # BFS back to `state` through tau steps.
    parent: dict = {}
    queue = deque()
    for dst, ann in adj[state]:
        if dst not in parent:
            parent[dst] = (state, ann)
            queue.append(dst)
    while queue:
        cur = queue.popleft()
        if cur == state:
            break
        for dst, ann in adj[cur]:
            if dst not in parent:
                parent[dst] = (cur, ann)
                if dst == state:
                    queue.appendleft(dst)
                    break
                queue.append(dst)
    steps: List[Step] = []
    cur = state
    while True:
        prev, ann = parent[cur]
        steps.append(Step(prev, ("tau",), cur, ann))
        cur = prev
        if cur == state:
            break
    steps.reverse()
    return steps


def find_divergence_lasso(
    lts: AnyLTS, budget: Optional["RunBudget"] = None
) -> Optional[Lasso]:
    """A diagnostic lasso witnessing divergence, or ``None`` if lock-free.

    The stem is a shortest path from the initial state to a silent
    cycle; the cycle is rendered with its transition annotations so a
    user can see which program lines spin (e.g. the HW queue's Deq scan
    or the revised Treiber+HP hazard-pointer re-read).
    """
    on_cycle = set(tau_cycle_states(lts, budget=budget))
    if not on_cycle:
        return None
    stem = _shortest_path(lts, [lts.init], on_cycle)
    if stem is None:
        return None
    entry = stem[-1].dst if stem else lts.init
    if entry not in on_cycle:
        # Initial state itself is on a cycle.
        entry = lts.init
    cycle = _cycle_from(lts, entry)
    return Lasso(stem=stem, cycle=cycle)
