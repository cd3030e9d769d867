"""Diagnostics for branching-bisimulation failures.

When two systems are *not* branching bisimilar, CADP-style tooling
produces an explanation.  Here it comes from the log of the refinement
that decided the question (:class:`repro.core.splitter.SplitLog`),
replayed by the split-tree method (Cleaveland, CAV 1990; carried to
branching bisimulation by Korver, CAV 1991):

* the splits form a tree of blocks, and the first split that separates
  two states is where their branches of the tree part;
* just before that split both states share a block, and their
  branching signatures w.r.t. the partition of that moment differ.
  They are computed on the explained system itself, over the two
  states' inert closures only.  One side can take an (inert-path +)
  action into a block the other side cannot reach, or diverge inside
  the shared block while the other cannot (Definition 5.4, decided by
  :func:`repro.core.graphs.divergence_marks`);
* every matching move of the other side ends in a block that an
  earlier split already separated from the witness's target, so the
  experiment recurses on the pair that was separated last, and ends.

The result is a :class:`Explanation` -- a list of levels, each carrying
the distinguishing action, the witness move on the side that has it,
and the reason the other side fails to match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, List, Optional, Tuple

from .branching import DIVERGENCE_MARK, branching_partition, compare_branching
from .graphs import divergence_marks
from .lts import TAU_ID, AnyLTS, FrozenLTS, ensure_frozen
from .splitter import SplitLog
from ..util.budget import RunBudget

if TYPE_CHECKING:  # pragma: no cover
    from .branching import Comparison

#: Correctness knob the fuzz harness mutates to prove it has teeth
#: (``repro.testing.differential.MUTATIONS``): a level names the state
#: that makes the distinguishing move, at the end of the witness's
#: inert path.  Dropping it claims the move from the path's start
#: (``explain-skip-inert-prefix``).
_INERT_PREFIX = True


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
    #: For a divergence claim: the block, as states, inside which the
    #: witness diverges and the opponent does not.
    block: FrozenSet[int] = frozenset()

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


@dataclass
class _Side:
    """One state's view of the partition just before a split."""

    block: int
    #: Non-inert moves ``(from, to)`` out of the inert closure, by
    #: action id, in breadth-first order of ``from``.
    moves: Dict[int, List[Tuple[int, int]]]
    signature: set


class SplitTree:
    """The split tree of one logged refinement, over the states of ``lts``.

    Block ``0`` is the root; a block born at split ``k`` hangs below the
    block it was split from, which is older and has a smaller id.  The
    block of a state just before split ``k`` is the first block above
    its final one born before ``k``.
    """

    def __init__(self, lts: FrozenLTS, log: SplitLog) -> None:
        self.lts = lts
        self.divergence = log.divergence
        self.num_splits = len(log.splits)
        self._comp_of = log.comp_of
        parent = [0]
        birth = [-1]
        final = [0] * log.num_comps
        for k, (block, parts) in enumerate(log.splits):
            for part in parts:
                fresh = len(parent)
                parent.append(block)
                birth.append(k)
                for comp in part:
                    final[comp] = fresh
        self._parent = parent
        self._birth = birth
        self._final = final

    def block_at(self, state: int, k: int) -> int:
        """The block of ``state`` just before split ``k``."""
        birth, parent = self._birth, self._parent
        block = self._final[self._comp_of[state]]
        while birth[block] >= k:
            block = parent[block]
        return block

    def members(self, block: int, k: int) -> FrozenSet[int]:
        """The states in ``block`` just before split ``k``."""
        birth, parent = self._birth, self._parent
        at = list(range(len(parent)))
        for b in range(1, len(parent)):  # a parent's entry comes first
            if birth[b] >= k:
                at[b] = at[parent[b]]
        final = self._final
        return frozenset(
            state for state, comp in enumerate(self._comp_of)
            if at[final[comp]] == block
        )

    def separation(self, s: int, r: int) -> Optional[int]:
        """The split that first separates ``s`` and ``r`` (``None``: none does)."""
        birth, parent = self._birth, self._parent
        a = self._final[self._comp_of[s]]
        b = self._final[self._comp_of[r]]
        first = self.num_splits
        # Climb from the younger block until the branches meet; births
        # fall along a branch, so the least one seen is where they part.
        while a != b:
            if a > b:
                first = min(first, birth[a])
                a = parent[a]
            else:
                first = min(first, birth[b])
                b = parent[b]
        return None if first == self.num_splits else first

    def _side(self, state: int, k: int, cache: Dict[int, int]) -> _Side:
        """Branching signature of ``state`` just before split ``k``."""
        lts = self.lts

        def block_of(x: int) -> int:
            b = cache.get(x)
            if b is None:
                b = cache[x] = self.block_at(x, k)
            return b

        home = block_of(state)
        closure = [state]
        index = {state: 0}
        inert: List[List[int]] = [[]]
        moves: Dict[int, List[Tuple[int, int]]] = {}
        signature = set()
        for i, x in enumerate(closure):  # grows while it is read
            for aid, y in lts.successors(x):
                b = block_of(y)
                if aid == TAU_ID and b == home:
                    j = index.get(y)
                    if j is None:
                        j = index[y] = len(closure)
                        closure.append(y)
                        inert.append([])
                    inert[i].append(j)
                else:
                    moves.setdefault(aid, []).append((x, y))
                    signature.add((aid, b))
        if self.divergence and divergence_marks(inert, [0] * len(inert))[0]:
            signature.add(DIVERGENCE_MARK)
        return _Side(home, moves, signature)

    def explain(
        self,
        left: int,
        right: int,
        max_depth: int = 64,
        budget: Optional[RunBudget] = None,
    ) -> Optional[Explanation]:
        """The distinguishing experiment for ``left`` and ``right``.

        ``None`` when no split separates them.  ``budget`` is checked
        once per level (phase ``"diagnostics"``).
        """
        k = self.separation(left, right)
        if k is None:
            return None
        levels: List[Level] = []
        s, r = left, right
        for _ in range(max_depth):
            if budget is not None:
                budget.check(
                    "diagnostics", states=self.lts.num_states,
                    levels=len(levels),
                )
            cache: Dict[int, int] = {}
            side_s, side_r = self._side(s, k, cache), self._side(r, k, cache)
            holder, witness, opponent = "left", s, r
            gain = side_s.signature - side_r.signature
            if not gain:
                holder, witness, opponent = "right", r, s
                side_s, side_r = side_r, side_s
                gain = side_s.signature - side_r.signature
            assert gain, "a split separated two states of equal signature"
            if DIVERGENCE_MARK in gain:
                levels.append(Level(
                    holder=holder,
                    action=DIVERGENCE_MARK,
                    witness_state=witness,
                    witness_target=witness,
                    opponent_state=opponent,
                    block=self.members(side_s.block, k),
                ))
                break
            # Every opponent match of a move lies outside its target's
            # block, so an earlier split separated the two.  Take the
            # move whose latest such split is earliest (-1: the opponent
            # has no match and the experiment ends there).
            options = []
            for aid, target_block in gain:
                mover, target = next(
                    (x, y) for x, y in side_s.moves[aid]
                    if cache[y] == target_block
                )
                candidates = [y for _, y in side_r.moves.get(aid, ())]
                # Recurse on the candidate that was separated last.
                latest, best = max(
                    ((self.separation(target, c), c) for c in candidates),
                    key=lambda pair: pair[0], default=(-1, None),
                )
                options.append((
                    latest, aid, target_block, mover, target, candidates, best,
                ))
            latest, aid, _, mover, target, candidates, best = min(
                options, key=lambda option: option[:3]
            )
            level = Level(
                holder=holder,
                action=self.lts.action_labels[aid],
                witness_state=mover if _INERT_PREFIX else witness,
                witness_target=target,
                opponent_state=opponent,
                opponent_targets=candidates,
            )
            levels.append(level)
            if best is None:
                break
            level.chosen_opponent_target = best
            k = latest
            s, r = (target, best) if holder == "left" else (best, target)
        return Explanation(levels=levels, union=self.lts)


def split_tree(
    lts: AnyLTS,
    divergence: bool = False,
    budget: Optional[RunBudget] = None,
) -> SplitTree:
    """Refine ``lts`` once with ``reduce=True``, keeping the log, and
    return its split tree."""
    lts = ensure_frozen(lts)
    log = SplitLog()
    branching_partition(
        lts, divergence=divergence, reduce=True, budget=budget, log=log
    )
    return SplitTree(lts, log)


def explain_comparison(
    outcome: "Comparison", budget: Optional[RunBudget] = None
) -> Optional[Explanation]:
    """Explain an inequivalent :func:`compare_branching` from its own log."""
    if outcome.log is None:
        return None
    return SplitTree(outcome.union, outcome.log).explain(
        outcome.init_a, outcome.init_b, budget=budget
    )


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
    checked before the refinement and once per experiment level
    (phase ``"diagnostics"``), and inside the refinement as there.
    """
    lts = ensure_frozen(lts)
    if budget is not None:
        budget.check("diagnostics", states=lts.num_states)
    return split_tree(lts, divergence=divergence, budget=budget).explain(
        left, right, max_depth=max_depth, budget=budget
    )


def explain_inequivalence(
    a: AnyLTS,
    b: AnyLTS,
    divergence: bool = False,
    budget: Optional[RunBudget] = None,
) -> Optional[Explanation]:
    """Explain why two systems are not (div-)branching bisimilar."""
    if budget is not None:
        budget.check("diagnostics", states=a.num_states + b.num_states)
    outcome = compare_branching(
        a, b, divergence=divergence, reduce=True, budget=budget
    )
    return explain_comparison(outcome, budget=budget)
