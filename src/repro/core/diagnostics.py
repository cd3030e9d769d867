"""Diagnostics for branching-bisimulation failures.

When two systems are *not* branching bisimilar, CADP-style tooling
produces an explanation.  :func:`explain_inequivalence` reconstructs a
distinguishing experiment from the refinement history: at the first
sweep where the two states' signatures differ, one side can take an
(inert-path +) action into a class that the other side cannot match;
recursing on the mismatched targets yields a chain of moves ending in a
visible difference (a visible action, or a divergence marker, only one
side can produce).

The result is a :class:`Explanation` -- a list of levels, each carrying
the distinguishing action, the witness path on the side that has it,
and the reason the other side fails to match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Tuple

from .branching import DIVERGENCE_MARK, _branching_signatures_ordered
from .lts import TAU_ID, AnyLTS, FrozenLTS, disjoint_union, ensure_frozen
from .partition import BlockMap, refine_step
from ..util.budget import RunBudget


def _sweep_history(
    lts: AnyLTS, divergence: bool, budget: Optional[RunBudget] = None
) -> List[BlockMap]:
    """All intermediate partitions of the signature refinement."""
    history: List[BlockMap] = [[0] * lts.num_states]
    while True:
        if budget is not None:
            budget.check(
                "diagnostics", states=lts.num_states, sweeps=len(history)
            )
        sigs = _branching_signatures_ordered(lts, history[-1], divergence)
        refined, changed = refine_step(history[-1], sigs)
        if not changed:
            return history
        history.append(refined)


def _inert_path_to_move(
    lts: FrozenLTS,
    block_of: BlockMap,
    start: int,
    action: int,
    target_block: int,
) -> Optional[Tuple[List[int], int]]:
    """Find ``start ==inert==> s' --action--> t`` with ``t`` in ``target_block``.

    Returns ``(path_states, t)`` where ``path_states`` starts at
    ``start`` and ends at ``s'``.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for aid, dst in lts.successors(state):
            if aid == action and block_of[dst] == target_block:
                if not (action == TAU_ID and block_of[state] == block_of[dst]):
                    path = []
                    cur: Optional[int] = state
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    path.reverse()
                    return path, dst
        for dst in lts.tau_successors(state):
            if block_of[dst] == block_of[state] and dst not in parent:
                parent[dst] = state
                queue.append(dst)
    return None


@dataclass
class Level:
    """One step of the distinguishing experiment."""

    holder: str                  # "left" or "right": who can make the move
    action: Hashable             # distinguishing action label (or DIVERGENCE)
    witness_state: int           # state performing the move (after inert path)
    witness_target: int          # its target
    opponent_state: int          # the state that cannot match
    opponent_targets: List[int] = field(default_factory=list)
    chosen_opponent_target: Optional[int] = None

    def render(self, lts: AnyLTS) -> str:
        label = self.action
        if label == DIVERGENCE_MARK:
            label = "<divergence>"
        if not self.opponent_targets:
            tail = "opponent has no matching move"
        else:
            tail = (
                f"every opponent match (e.g. state {self.chosen_opponent_target}) "
                "is itself distinguishable"
            )
        return (
            f"{self.holder} can do {label!r} "
            f"(state {self.witness_state} -> {self.witness_target}); {tail}"
        )


@dataclass
class Explanation:
    """Chain of distinguishing moves (coarse to fine)."""

    levels: List[Level]
    union: FrozenLTS

    def render(self) -> str:
        lines = ["distinguishing experiment (branching bisimulation):"]
        for depth, level in enumerate(self.levels):
            lines.append("  " * (depth + 1) + level.render(self.union))
        return "\n".join(lines)


def explain_states(
    lts: AnyLTS,
    left: int,
    right: int,
    divergence: bool = False,
    max_depth: int = 64,
    budget: Optional[RunBudget] = None,
) -> Optional[Explanation]:
    """Explain why ``left`` and ``right`` are not branching bisimilar.

    Returns ``None`` when the states are bisimilar.  ``budget`` is
    checked once per refinement sweep and once per experiment level
    (phase ``"diagnostics"``).
    """
    lts = ensure_frozen(lts)
    history = _sweep_history(lts, divergence, budget=budget)
    final = history[-1]
    if final[left] == final[right]:
        return None

    def first_diff(s: int, r: int) -> int:
        for k, blocks in enumerate(history):
            if blocks[s] != blocks[r]:
                return k
        return len(history)  # unreachable for distinguishable states

    levels: List[Level] = []
    s, r = left, right
    for _ in range(max_depth):
        if budget is not None:
            budget.check(
                "diagnostics", states=lts.num_states, levels=len(levels)
            )
        k = first_diff(s, r)
        base = history[k - 1]
        sigs = _branching_signatures_ordered(lts, base, divergence)
        diff = sigs[s] - sigs[r]
        holder, witness, opponent = "left", s, r
        if not diff:
            diff = sigs[r] - sigs[s]
            holder, witness, opponent = "right", r, s
        element = sorted(diff, key=repr)[0]
        if element == DIVERGENCE_MARK:
            levels.append(Level(
                holder=holder,
                action=DIVERGENCE_MARK,
                witness_state=witness,
                witness_target=witness,
                opponent_state=opponent,
            ))
            break
        aid, target_block = element
        found = _inert_path_to_move(lts, base, witness, aid, target_block)
        assert found is not None, "signature promised a move"
        path, target = found
        # Opponent candidates: any inert-path + same-action move.
        candidates: List[int] = []
        seen = {opponent}
        queue = deque([opponent])
        while queue:
            state = queue.popleft()
            for a2, dst in lts.successors(state):
                if a2 == aid and not (
                    a2 == TAU_ID and base[state] == base[dst]
                ):
                    candidates.append(dst)
                if a2 == TAU_ID and base[dst] == base[state] and dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        level = Level(
            holder=holder,
            action=lts.action_labels[aid],
            witness_state=path[-1],
            witness_target=target,
            opponent_state=opponent,
            opponent_targets=candidates,
        )
        levels.append(level)
        if not candidates:
            break
        # Recurse on the "closest" candidate (max first-diff level).
        best = max(candidates, key=lambda c: first_diff(target, c))
        level.chosen_opponent_target = best
        s, r = target, best
        if first_diff(s, r) >= len(history):
            break
    return Explanation(levels=levels, union=lts)


def explain_inequivalence(
    a: AnyLTS,
    b: AnyLTS,
    divergence: bool = False,
    budget: Optional[RunBudget] = None,
) -> Optional[Explanation]:
    """Explain why two systems are not (div-)branching bisimilar."""
    union, init_a, init_b = disjoint_union(a, b)
    return explain_states(
        union, init_a, init_b, divergence=divergence, budget=budget
    )
