"""Quotient transition systems (Definition 5.1).

The quotient of an object system under branching bisimilarity keeps one
state per equivalence class, lifts visible transitions, and keeps a
silent transition only when it crosses two distinct classes -- i.e.
only the internal steps that actually *take effect* survive.  Checking
linearizability on the quotient is sound (Theorems 5.2/5.3) and the
quotient is typically orders of magnitude smaller (Fig. 10).

The annotations of the concrete system (thread / program line that
produced a step) name the silent steps that survive quotienting, which
is how the paper reads off the essential internal steps of the MS queue
(lines 8, 20, 21, 28 -- Section VI.D.1 and Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from .lts import LTS, TAU_ID, AnyLTS, FrozenLTS
from .partition import BlockMap, num_blocks


@dataclass
class Quotient:
    """A quotient LTS plus bookkeeping tying it back to the original.

    Attributes
    ----------
    lts:
        The quotient transition system (frozen).
    block_of:
        Map from original states to quotient states.  ``None`` for an
        original state whose class was trimmed as unreachable -- never a
        negative sentinel, which Python indexing would silently alias to
        a real quotient state.
    source:
        The original system.
    """

    lts: FrozenLTS
    block_of: List[Optional[int]]
    source: AnyLTS

    def essential_internal_annotations(self) -> Set[Any]:
        """Annotations of the silent steps that survive quotienting.

        These are the internal steps that change the equivalence class,
        i.e. the steps "responsible for taking effect for the system"
        (Section V.A) -- for the MS queue they coincide with the manual
        linearization-point analysis (lines 8/20/21/28).  Computed on
        demand from the silent edges of :attr:`source` between two
        different kept classes.
        """
        block_of = self.block_of
        out: Set[Any] = set()
        for src, aid, dst, ann in self.source.transitions_with_annotations():
            if aid == TAU_ID and ann is not None:
                qsrc = block_of[src]
                if qsrc is not None and qsrc != block_of[dst]:
                    out.add(ann)
        return out


def quotient_lts(lts: AnyLTS, block_of: BlockMap) -> Quotient:
    """Build the quotient transition system of Definition 5.1.

    ``block_of`` is any partition of the states of ``lts`` (normally the
    branching-bisimulation partition).  Visible transitions are lifted
    class-wise; silent transitions survive only between distinct
    classes.  The result is restricted to the classes reachable from
    the initial class.
    """
    out = LTS()
    out.add_states(num_blocks(block_of))
    out.init = block_of[lts.init]
    labels = lts.action_labels
    seen: Set[Tuple[int, int, int]] = set()
    for src, aid, dst in lts.transitions():
        qsrc, qdst = block_of[src], block_of[dst]
        if aid == TAU_ID and qsrc == qdst:
            continue
        key = (qsrc, aid, qdst)
        if key not in seen:
            seen.add(key)
            out.add_transition(qsrc, labels[aid], qdst)

    frozen = out.freeze()
    reachable = set(frozen.reachable_states())
    if len(reachable) == out.num_states:
        return Quotient(lts=frozen, block_of=list(block_of), source=lts)
    remap = {old: new for new, old in enumerate(sorted(reachable))}
    trimmed = LTS()
    trimmed.add_states(len(reachable))
    trimmed.init = remap[out.init]
    for src, aid, dst in out.transitions():
        if src in remap and dst in remap:
            trimmed.add_transition(remap[src], out.action_labels[aid], remap[dst])
    block_map = [remap.get(block_of[s]) for s in range(len(block_of))]
    return Quotient(lts=trimmed.freeze(), block_of=block_map, source=lts)
