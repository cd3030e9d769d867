"""Partitions as block maps, plus generic signature refinement.

The bisimulation partitions are computed by the splitter-queue engine
(:mod:`repro.core.splitter`); this module holds the shared block-map
helpers and the generic sweep loop still used where the signature is
not a bisimulation step: DFA minimization in :mod:`repro.core.traces`
and the per-round history of :mod:`repro.core.diagnostics`.  In each
sweep every state is assigned a *signature* relative to the current
partition, and blocks are split so that two states stay together only
if they carry the same signature.  Iterating to a fixpoint yields the
coarsest partition that is stable under the signature function (Blom &
Orzan's signature-refinement scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats

#: A partition is represented as a dense block index per state.
BlockMap = List[int]

#: A signature function maps the current partition to one signature per state.
SignatureFn = Callable[[BlockMap], Sequence[Hashable]]


def num_blocks(block_of: BlockMap) -> int:
    """Number of blocks of a partition (block ids must be dense)."""
    return max(block_of) + 1 if block_of else 0


def normalize(block_of: Sequence[int]) -> BlockMap:
    """Renumber block ids densely in order of first occurrence."""
    remap: Dict[int, int] = {}
    out: BlockMap = []
    for b in block_of:
        nb = remap.get(b)
        if nb is None:
            nb = len(remap)
            remap[b] = nb
        out.append(nb)
    return out


def partition_from_key(keys: Sequence[Hashable]) -> BlockMap:
    """Build the partition that groups states by an arbitrary key."""
    table: Dict[Hashable, int] = {}
    out: BlockMap = []
    for key in keys:
        block = table.get(key)
        if block is None:
            block = len(table)
            table[key] = block
        out.append(block)
    return out


def blocks_of(block_of: BlockMap) -> List[List[int]]:
    """Return the partition as explicit lists of states per block."""
    out: List[List[int]] = [[] for _ in range(num_blocks(block_of))]
    for state, block in enumerate(block_of):
        out[block].append(state)
    return out


def same_partition(a: BlockMap, b: BlockMap) -> bool:
    """Whether two partitions induce the same equivalence relation."""
    if len(a) != len(b):
        return False
    fwd: Dict[int, int] = {}
    bwd: Dict[int, int] = {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def is_refinement(fine: BlockMap, coarse: BlockMap) -> bool:
    """Whether ``fine`` refines ``coarse`` (every fine block is inside one coarse block)."""
    if len(fine) != len(coarse):
        return False
    seen: Dict[int, int] = {}
    for f, c in zip(fine, coarse):
        if seen.setdefault(f, c) != c:
            return False
    return True


def refine_step(block_of: BlockMap, signatures: Sequence[Hashable]) -> Tuple[BlockMap, bool]:
    """Split every block by signature.  Returns ``(partition, changed)``."""
    table: Dict[Tuple[int, Hashable], int] = {}
    new_block_of: BlockMap = [0] * len(block_of)
    for state, block in enumerate(block_of):
        key = (block, signatures[state])
        nb = table.get(key)
        if nb is None:
            nb = len(table)
            table[key] = nb
        new_block_of[state] = nb
    return new_block_of, len(table) != num_blocks(block_of)


@dataclass
class RefinementRun:
    """Outcome of a (possibly sweep-capped) refinement run.

    ``converged`` is ``True`` only when a sweep produced no split, i.e.
    ``block_of`` is provably stable under the signature function; a run
    stopped by ``max_sweeps`` while still splitting reports ``False``
    and its partition is an intermediate (too coarse) approximation.
    """

    block_of: BlockMap
    converged: bool
    sweeps: int


class RefinementNotConverged(RuntimeError):
    """Raised when ``max_sweeps`` cut refinement off before the fixpoint.

    Carries the interrupted :class:`RefinementRun` so callers that can
    use a partial (coarser-than-stable) partition may still recover it.
    """

    def __init__(self, run: RefinementRun):
        super().__init__(
            f"partition refinement stopped after {run.sweeps} sweeps "
            "while blocks were still splitting"
        )
        self.run = run


def refine_with_status(
    n: int,
    signature_fn: SignatureFn,
    initial: Optional[BlockMap] = None,
    max_sweeps: Optional[int] = None,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
    phase: str = "refinement",
) -> RefinementRun:
    """Iterate :func:`refine_step` until stable or ``max_sweeps`` is hit.

    ``signature_fn`` receives the current partition and must return one
    hashable signature per state.  On convergence the partition is the
    coarsest refinement of ``initial`` in which equal blocks carry equal
    signatures; either way the returned :class:`RefinementRun` says
    explicitly whether the fixpoint was reached.

    ``stats``, when given, receives the ``sweeps``/``splits``/``states``
    counters once the run ends; the refinement loop itself is identical
    either way.  ``budget``, when given, is checked at the top of every
    sweep under ``phase`` and raises
    :class:`~repro.util.budget.BudgetExhausted` when a limit is hit.
    """
    if n == 0:
        return RefinementRun(block_of=[], converged=True, sweeps=0)
    block_of = normalize(initial) if initial is not None else [0] * n
    if len(block_of) != n:
        raise ValueError("initial partition has wrong length")
    start_blocks = num_blocks(block_of)
    sweeps = 0
    converged = False
    while True:
        if budget is not None:
            budget.check(
                phase, states=n, sweeps=sweeps, blocks=num_blocks(block_of)
            )
        signatures = signature_fn(block_of)
        block_of, changed = refine_step(block_of, signatures)
        sweeps += 1
        if not changed:
            converged = True
            break
        if max_sweeps is not None and sweeps >= max_sweeps:
            break
    if stats is not None:
        stats.count("states", n)
        stats.count("sweeps", sweeps)
        stats.count("splits", num_blocks(block_of) - start_blocks)
    return RefinementRun(block_of=block_of, converged=converged, sweeps=sweeps)


def refine_to_fixpoint(
    n: int,
    signature_fn: SignatureFn,
    initial: Optional[BlockMap] = None,
    max_sweeps: Optional[int] = None,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
    phase: str = "refinement",
) -> BlockMap:
    """Iterate :func:`refine_step` until the partition is stable.

    Like :func:`refine_with_status` but returns the bare partition, so
    the result is always a genuine fixpoint: if ``max_sweeps`` cuts the
    run off while blocks are still splitting, the unstable intermediate
    partition is *not* returned -- :class:`RefinementNotConverged` is
    raised instead (carrying the partial run for callers that want it).
    """
    run = refine_with_status(
        n, signature_fn, initial=initial, max_sweeps=max_sweeps, stats=stats,
        budget=budget, phase=phase,
    )
    if not run.converged:
        raise RefinementNotConverged(run)
    return run.block_of
