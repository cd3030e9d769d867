"""Partitions as block maps, plus generic signature refinement.

The bisimulation partitions are computed by the splitter-queue engine
(:mod:`repro.core.splitter`); this module holds the shared block-map
helpers and the generic sweep for signatures that are not a
bisimulation step: :func:`refine_step` records the per-round history of
:mod:`repro.core.diagnostics`, and :func:`refine_to_fixpoint` minimizes
the DFA of :mod:`repro.core.traces`.  In each sweep every state is
assigned a *signature* relative to the current partition, and blocks
are split so that two states stay together only if they carry the same
signature.  Iterating to a fixpoint yields the coarsest partition that
is stable under the signature function (Blom & Orzan's
signature-refinement scheme).  Budgets are not checked here; the
refinement budget checks live in the splitter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
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


def refine_to_fixpoint(
    n: int,
    signature_fn: SignatureFn,
    initial: Optional[BlockMap] = None,
    stats: Optional["Stats"] = None,
) -> BlockMap:
    """Iterate :func:`refine_step` until the partition is stable.

    ``signature_fn`` receives the current partition and must return one
    hashable signature per state.  The result is the coarsest refinement
    of ``initial`` in which equal blocks carry equal signatures.

    ``stats``, when given, receives the ``sweeps``/``splits``/``states``
    counters once the run ends; the refinement loop itself is identical
    either way.
    """
    if n == 0:
        return []
    block_of = normalize(initial) if initial is not None else [0] * n
    if len(block_of) != n:
        raise ValueError("initial partition has wrong length")
    start_blocks = num_blocks(block_of)
    sweeps = 0
    changed = True
    while changed:
        block_of, changed = refine_step(block_of, signature_fn(block_of))
        sweeps += 1
    if stats is not None:
        stats.count("states", n)
        stats.count("sweeps", sweeps)
        stats.count("splits", num_blocks(block_of) - start_blocks)
    return block_of
