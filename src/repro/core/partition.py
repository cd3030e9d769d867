"""Partitions as block maps, plus one step of signature refinement.

The partitions themselves are computed by the splitter-queue engine
(:mod:`repro.core.splitter`), the one refinement engine; this module
holds the shared block-map helpers and :func:`refine_step`, the
whole-system sweep that records the per-round history of
:mod:`repro.core.diagnostics`.  A sweep assigns every state a
*signature* relative to the current partition and splits blocks so that
two states stay together only if they carry the same signature
(Blom & Orzan's signature-refinement scheme).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

#: A partition is represented as a dense block index per state.
BlockMap = List[int]


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
