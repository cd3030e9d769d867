"""Golden state-space sizes (regression canaries).

These pin the exact state counts of a few benchmark explorations and
their quotients.  They are *encoding-sensitive by design*: any change
to the operational semantics, the canonicalization, the fusion rule or
a benchmark model moves them, which is exactly what we want to notice.
If you change the encoding deliberately, update the numbers (and
re-check EXPERIMENTS.md, which quotes some of them).
"""

import hashlib

import pytest

from repro.core import branching_partition, num_blocks, quotient_lts
from repro.core.aut import dumps_aut
from repro.lang import ClientConfig, explore, spec_lts
from repro.objects import get

pytestmark = pytest.mark.slow

GOLDEN = {
    # key: (threads, ops, |D|, |D/~|)
    "treiber": (2, 2, 10505, 388),
    "ms_queue": (2, 2, 36175, 337),
    "dglm_queue": (2, 2, 32811, 337),
    "newcas": (2, 2, 1013, 182),
    "hw_queue": (2, 2, 4790, 179),
    "ccas": (2, 2, 8380, 253),
    "hm_list": (2, 2, 37269, 512),
}

#: Byte identity of the serial ``.aut`` at 2x2: key -> (transitions,
#: sha256 of ``dumps_aut``).  The same digests are committed as the
#: time-to-verdict benchmark's expected outputs.  Every canonicalization
#: or interning shortcut must leave them unchanged.
GOLDEN_AUT = {
    "hm_list": (73754, "885a83d49109a9d2e7017973f3dc37f03efc4f009959e061d13992215592c2e4"),
    "ms_queue": (69116, "89bc12f749b191d4a76ea05cbc8aeb88857a333af99fc11cb118aeb54498d29e"),
    "treiber": (20188, "246a82a2f24ca7130758c8218323ec3f14a4ebba6000d4dea280f75dc0eadc6e"),
    "ccas": (17262, "1dfac48fa17ac8694229776627fbc9ce1e5787de374f63b4c5e01c3a716abc5e"),
    "hw_queue": (9417, "c194dff6a090975ec41afde5d6ac984300ba0e0009613827e91ba4fec91d56ec"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_exploration_sizes(key):
    threads, ops, states, quotient_states = GOLDEN[key]
    bench = get(key)
    system = explore(
        bench.build(threads), ClientConfig(threads, ops, bench.default_workload())
    )
    assert system.num_states == states
    if key in GOLDEN_AUT:
        transitions, digest = GOLDEN_AUT[key]
        assert system.num_transitions == transitions
        assert hashlib.sha256(dumps_aut(system).encode()).hexdigest() == digest
    quotient = quotient_lts(system, branching_partition(system))
    assert quotient.lts.num_states == quotient_states


def test_golden_ms_and_dglm_share_quotient_size():
    assert GOLDEN["ms_queue"][3] == GOLDEN["dglm_queue"][3]


def test_golden_spec_sizes():
    bench = get("ms_queue")
    spec_system = spec_lts(bench.spec(), 2, 2, bench.default_workload())
    assert spec_system.num_states == 1379
    blocks = branching_partition(spec_system)
    assert num_blocks(blocks) == 337
