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


#: The six distinct registry specifications at 2x2: key -> (states,
#: transitions, sha256 of ``dumps_aut``).  Spec generation shares the
#: object explorer's DFS loop, so these pin that loop's interning order
#: on the specification side.
GOLDEN_SPEC = {
    "ms_queue": (1379, 2836, "596489e8da3247668b8995e7f4d88ada35b4e7fa5e65a4944a1ee1f063f76b34"),
    "treiber": (1413, 2908, "98cacc1d7065317f910eeeca5c4e9ae1c39b1feba2e2630a59ba155749084642"),
    "hm_list": (1427, 3384, "c62abc6ab4d8ffdc973d4a8b83432d661fc3a6a1865bbd67440b9864b07fa40a"),
    "ccas": (875, 2084, "46d6c05ea83971bda8bf416f88b87ed4f286658b69654ec6046f57acaf899c36"),
    "newcas": (572, 1308, "fdd54e0c876a4762e6275365ed3ad452c6811a8e6829bc6cd02c008fbe573c50"),
    "lazy_list": (2851, 7152, "7f1e789b282526567973521797d37ab8ed05efa0bcac531ca14a621242fc936f"),
}


def test_golden_spec_sizes():
    for key, (states, transitions, digest) in GOLDEN_SPEC.items():
        bench = get(key)
        spec_system = spec_lts(bench.spec(), 2, 2, bench.default_workload())
        assert spec_system.num_states == states, key
        assert spec_system.num_transitions == transitions, key
        aut = dumps_aut(spec_system.freeze())
        assert hashlib.sha256(aut.encode()).hexdigest() == digest, key
        if key == "ms_queue":
            assert num_blocks(branching_partition(spec_system)) == 337
