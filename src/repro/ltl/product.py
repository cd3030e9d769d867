"""LTS x Büchi product and nested-DFS emptiness checking.

Model checking ``lts |= phi``: translate ``!phi`` to a Büchi automaton,
build the product with the (stutter-completed) LTS, and search for an
accepting lasso with the classic nested depth-first search.  A found
lasso is a counterexample execution violating ``phi``.

Finite maximal executions are handled by *stutter completion*: every
deadlocked state gets a self-loop labelled :data:`DEADLOCK`, so LTL
semantics over infinite words applies uniformly (a terminated client
"idles forever").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..core.lts import AnyLTS, FrozenLTS, ensure_frozen
from ..util.budget import RunBudget
from .buchi import Buchi, ltl_to_buchi
from .syntax import AP, Not

#: Label of the self-loop added to deadlocked states.
DEADLOCK: Tuple[str, ...] = ("deadlock",)


def stutter_complete(lts: AnyLTS) -> FrozenLTS:
    """Copy of ``lts`` with a DEADLOCK self-loop on terminal states."""
    frozen = ensure_frozen(lts)
    out = frozen.thaw()
    for state in range(frozen.num_states):
        if not frozen.successors(state):
            out.add_transition(state, DEADLOCK, state)
    return out.freeze()


@dataclass
class LtlResult:
    """Outcome of a model-checking run."""

    holds: bool
    #: Counterexample lasso as action labels (prefix + repeating cycle).
    prefix: Optional[List[Hashable]] = None
    cycle: Optional[List[Hashable]] = None

    def render(self) -> str:
        if self.holds:
            return "<property holds>"
        lines = ["counterexample lasso:"]
        for label in self.prefix or []:
            lines.append(f'  "{label}"')
        lines.append("  -- cycle --")
        for label in self.cycle or []:
            lines.append(f'  "{label}"')
        return "\n".join(lines)


def _enabled(positive, negative, label: Hashable) -> bool:
    for ap in positive:
        if not ap.matcher(label):
            return False
    for ap in negative:
        if ap.matcher(label):
            return False
    return True


def check_ltl(
    lts: AnyLTS, formula, budget: Optional[RunBudget] = None
) -> LtlResult:
    """Check whether every (stutter-completed) execution satisfies ``formula``.

    ``budget``, when given, is checked once per product node visited in
    either DFS (phase ``"ltl"``); exhaustion raises the structured
    :class:`~repro.util.budget.BudgetExhausted` taxonomy, and callers
    report ``UNKNOWN`` instead of a verdict.
    """
    system = stutter_complete(lts)
    buchi = ltl_to_buchi(Not(formula))

    # Product node: (lts_state, buchi_state).  Buchi edges read the
    # label of the LTS transition being taken.
    def product_successors(node: Tuple[int, int]):
        state, q = node
        for aid, dst in system.successors(state):
            label = system.action_labels[aid]
            for positive, negative, q2 in buchi.transitions.get(q, ()):
                if _enabled(positive, negative, label):
                    yield (dst, q2), label

    starts = [(system.init, q) for q in buchi.initial]

    # Nested DFS (Courcoubetis/Vardi/Wolper/Yannakakis).
    outer_done: Set[Tuple[int, int]] = set()
    inner_done: Set[Tuple[int, int]] = set()
    parent: Dict[Tuple[int, int], Optional[Tuple[Tuple[int, int], Hashable]]] = {}

    def inner_dfs(seed: Tuple[int, int]) -> Optional[List[Hashable]]:
        """Search a cycle back to ``seed``; returns the cycle labels."""
        local_parent: Dict[Tuple[int, int], Optional[Tuple[Tuple[int, int], Hashable]]] = {}
        stack = [seed]
        local_parent[seed] = None
        while stack:
            if budget is not None:
                budget.check(
                    "ltl",
                    states=len(outer_done),
                    inner_states=len(inner_done),
                )
            node = stack.pop()
            for succ, label in product_successors(node):
                if succ == seed:
                    cycle = [label]
                    cur = node
                    while local_parent[cur] is not None:
                        prev, lbl = local_parent[cur]
                        cycle.append(lbl)
                        cur = prev
                    cycle.reverse()
                    return cycle
                if succ not in inner_done and succ not in local_parent:
                    local_parent[succ] = (node, label)
                    inner_done.add(succ)
                    stack.append(succ)
        return None

    for start in starts:
        if start in outer_done:
            continue
        parent[start] = None
        # Iterative post-order DFS so accepting states are inner-searched
        # after their descendants (required for nested-DFS correctness).
        stack: List[Tuple[Tuple[int, int], bool]] = [(start, False)]
        while stack:
            if budget is not None:
                budget.check(
                    "ltl",
                    states=len(outer_done),
                    inner_states=len(inner_done),
                )
            node, expanded = stack.pop()
            if expanded:
                if node[1] in buchi.accepting:
                    cycle = inner_dfs(node)
                    if cycle is not None:
                        prefix: List[Hashable] = []
                        cur = node
                        while parent[cur] is not None:
                            prev, lbl = parent[cur]
                            prefix.append(lbl)
                            cur = prev
                        prefix.reverse()
                        return LtlResult(holds=False, prefix=prefix, cycle=cycle)
                continue
            if node in outer_done:
                continue
            outer_done.add(node)
            stack.append((node, True))
            for succ, label in product_successors(node):
                if succ not in outer_done:
                    if succ not in parent:
                        parent[succ] = (node, label)
                    stack.append((succ, False))
    return LtlResult(holds=True)
