"""Divergence detection and diagnostic lassos.

A lock-freedom violation in a bounded object system is an infinite
silent path, which in a finite LTS means a reachable tau-cycle
(Section V.B).  This module finds divergent states, and extracts a
*lasso* diagnostic -- a stem from the initial state followed by a
silent cycle -- in the style of CADP's output reproduced in Fig. 9.
The cycle-state helper and the lasso finder take the silent steps a
cycle may use: every one for lock-freedom, one thread's for
obstruction-freedom (:mod:`repro.verify.obstruction`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Set, Tuple

from .graphs import cyclic_components, divergence_marks
from .lts import TAU, TAU_ID, AnyLTS, tau_successor_lists

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget


def silent_cycle_states(
    lts: AnyLTS,
    keep: Optional[Callable[[Any], bool]] = None,
    budget: Optional["RunBudget"] = None,
) -> List[int]:
    """States lying on a cycle of the silent steps a cycle may use.

    Those are the silent steps whose annotation ``keep`` accepts, or
    every silent step when ``keep`` is ``None`` (lock-freedom's cycles,
    read from the system's cached silent adjacency).
    """
    n = lts.num_states
    if budget is not None:
        budget.check("divergence", states=n)
    if keep is None:
        succ = tau_successor_lists(lts)
    else:
        succ = [[dst for dst, _ann in row] for row in _silent_steps(lts, keep)]
    comp_of, _num_comps, cyclic = cyclic_components(succ)
    return [state for state in range(n) if cyclic[comp_of[state]]]


def tau_cycle_states(
    lts: AnyLTS, budget: Optional["RunBudget"] = None
) -> List[int]:
    """States lying on a silent cycle."""
    return silent_cycle_states(lts, budget=budget)


def divergent_states(
    lts: AnyLTS, budget: Optional["RunBudget"] = None
) -> List[bool]:
    """States with an infinite silent path (can reach a silent cycle by taus):
    Definition 5.4's marking with the whole system as one block."""
    if budget is not None:
        budget.check("divergence", states=lts.num_states)
    return divergence_marks(tau_successor_lists(lts), [0] * lts.num_states)


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


def _silent_steps(
    lts: AnyLTS, keep: Optional[Callable[[Any], bool]]
) -> List[List[Tuple[int, Any]]]:
    """Per-state ``(dst, annotation)`` silent steps that ``keep`` accepts
    (all of them when ``keep`` is ``None``)."""
    steps: List[List[Tuple[int, Any]]] = [[] for _ in range(lts.num_states)]
    for src, aid, dst, ann in lts.transitions_with_annotations():
        if aid == TAU_ID and (keep is None or keep(ann)):
            steps[src].append((dst, ann))
    return steps


def _stem(lts: AnyLTS, targets: Set[int]) -> Optional[List[Step]]:
    """BFS shortest path from the initial state to any target state."""
    if lts.init in targets:
        return []
    adj: List[List[Tuple[int, int, Any]]] = [[] for _ in range(lts.num_states)]
    for src, aid, dst, ann in lts.transitions_with_annotations():
        adj[src].append((aid, dst, ann))
    parent: dict = {lts.init: None}
    queue = deque([lts.init])
    reached = None
    while queue and reached is None:
        state = queue.popleft()
        for aid, dst, ann in adj[state]:
            if dst not in parent:
                parent[dst] = (state, aid, ann)
                if dst in targets:
                    reached = dst
                    break
                queue.append(dst)
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


def _cycle_from(steps: List[List[Tuple[int, Any]]], state: int) -> List[Step]:
    """A cycle of silent ``steps`` through ``state`` (which must lie on
    one): a breadth-first search from ``state`` back to itself."""
    parent: dict = {}
    queue = deque([state])
    while state not in parent:
        cur = queue.popleft()
        for dst, ann in steps[cur]:
            if dst not in parent:
                parent[dst] = (cur, ann)
                queue.append(dst)
    cycle: List[Step] = []
    cur = state
    while True:
        prev, ann = parent[cur]
        cycle.append(Step(prev, TAU, cur, ann))
        cur = prev
        if cur == state:
            break
    cycle.reverse()
    return cycle


def find_silent_lasso(
    lts: AnyLTS,
    keep: Optional[Callable[[Any], bool]] = None,
    budget: Optional["RunBudget"] = None,
) -> Optional[Lasso]:
    """A stem to a reachable silent cycle, then the cycle; ``None`` if none.

    The cycle uses only the silent steps ``keep`` accepts (every silent
    step when ``keep`` is ``None``); the stem is a shortest path from
    the initial state over any steps.  The cycle is rendered with its
    transition annotations so a user can see which program lines spin.
    """
    on_cycle = set(silent_cycle_states(lts, keep, budget))
    if not on_cycle:
        return None
    stem = _stem(lts, on_cycle)
    if stem is None:
        return None
    entry = stem[-1].dst if stem else lts.init
    return Lasso(stem=stem, cycle=_cycle_from(_silent_steps(lts, keep), entry))


def find_divergence_lasso(
    lts: AnyLTS, budget: Optional["RunBudget"] = None
) -> Optional[Lasso]:
    """A diagnostic lasso witnessing divergence, or ``None`` if lock-free.

    The stem is a shortest path from the initial state to a silent
    cycle, e.g. the HW queue's Deq scan or the revised Treiber+HP
    hazard-pointer re-read (:func:`find_silent_lasso` over every silent
    step).
    """
    return find_silent_lasso(lts, budget=budget)
