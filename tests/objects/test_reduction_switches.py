"""The explorer's two reductions, switched off one at a time (fast lane).

``ClientConfig(canonicalize_heap=False)`` skips heap canonicalization
and ``fuse_local_steps=False`` skips local-step fusion.  Both paths
bypass the incremental canonicalization the default exploration takes,
so their sizes are pinned here; each reduction only removes redundant
states, so every configuration has the same branching quotient.
"""

import pytest

from repro.core import branching_partition, quotient_lts
from repro.lang import ClientConfig, explore
from repro.objects import get

#: ``(canonicalize_heap, fuse_local_steps)`` in the order of the sizes below.
SWITCHES = [(True, True), (True, False), (False, True), (False, False)]

#: |D| at 2 threads x 1 op, per entry of SWITCHES.
SIZES = {
    "treiber": (334, 690, 480, 1016),
    "ms_queue": (1037, 2841, 1609, 4497),
}


@pytest.mark.parametrize("key", sorted(SIZES))
@pytest.mark.parametrize("switches", SWITCHES, ids=["TT", "TF", "FT", "FF"])
def test_reduction_switch_sizes_and_quotient(key, switches):
    canonical, fuse = switches
    bench = get(key)
    system = explore(bench.build(2), ClientConfig(
        2, 1, bench.default_workload(),
        canonicalize_heap=canonical, fuse_local_steps=fuse,
    ))
    assert system.num_states == SIZES[key][SWITCHES.index(switches)]
    quotient = quotient_lts(system, branching_partition(system))
    assert quotient.lts.num_states == 40
