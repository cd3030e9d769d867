"""Partitions as block maps.

The partitions themselves are computed by the splitter-queue engine
(:mod:`repro.core.splitter`), the one refinement engine; this module
holds the block-map helpers every engine and consumer shares.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

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
