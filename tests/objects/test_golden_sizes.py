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
from repro.objects import all_benchmarks, get
from repro.util.metrics import Stats

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

#: Byte identity of the serial ``.aut`` of every registry object at 2x2:
#: key -> (transitions, sha256 of ``dumps_aut``).  Between them they run
#: every shared instruction the models use: global and field reads,
#: writes and CAS, swap, fetch-and-add, ``Alloc``, ``Free`` (ABA) and
#: node locks.  Some digests are also committed as the time-to-verdict
#: benchmark's expected outputs.  Every canonicalization, interning or
#: step-cache shortcut must leave them unchanged.
GOLDEN_AUT = {
    "ccas": (17262, "1dfac48fa17ac8694229776627fbc9ce1e5787de374f63b4c5e01c3a716abc5e"),
    "dglm_queue": (62864, "ea7611047c9599aac7d10df3efbc34ed2d7023f1a9760ae2242733b768237d9c"),
    "fine_list": (27334, "680970e008a51209bd1e8b8ebfe7fd1af9f7ac386e61f7415e35d2b5e44244fa"),
    "hm_list": (73754, "885a83d49109a9d2e7017973f3dc37f03efc4f009959e061d13992215592c2e4"),
    "hm_list_buggy": (71098, "47973844618e85e67285bf2d6dd5de8d7704aa50ec20d47147ab6e664099f21a"),
    "hsy_stack": (35096, "79ce63ddda0c01003d580cb2e8a594e998679ad923855b73ac5a99d09841f5db"),
    "hw_queue": (9417, "c194dff6a090975ec41afde5d6ac984300ba0e0009613827e91ba4fec91d56ec"),
    "lazy_list": (209748, "8aa929bff335d46f07a8ba398978a624f6da5b67669ab9c05e69731e4ea7c8b0"),
    "ms_queue": (69116, "89bc12f749b191d4a76ea05cbc8aeb88857a333af99fc11cb118aeb54498d29e"),
    "newcas": (2228, "a5e83fc5700ca174eba7b526aaad26da32f8410acd2e87ed9ffddea0e65cab9b"),
    "optimistic_list": (152266, "2a2af85bcb2d366de5d4005a4c373c0d7da56d3728d3d4a5a9e2d9dc1e52dc3d"),
    "rdcss": (29270, "27a1fa0172e5a634b6c7215a6eeb2525a6165c51558fb9c4649ea7e4e3fe21f9"),
    "treiber": (20188, "246a82a2f24ca7130758c8218323ec3f14a4ebba6000d4dea280f75dc0eadc6e"),
    "treiber_hp": (38344, "38109a4d825a3451dc9183030888d5ee905cd9b5fba5332cf6b80777e41bcfc2"),
    "treiber_hp_buggy": (36928, "8d56a703a47eb5d140f14dd8c9d01d10ad0dd7e2d8daf6c44b716ef5574aa802"),
}


#: Thread steps an exploration at 2x2 computes (``explore.thread_steps``):
#: the step cache keys each step by what its instruction reads.  Keyed
#: by the whole state, ms_queue computed 15,506 and treiber_hp_buggy
#: 11,922.
THREAD_STEPS = {
    "ccas": 1159,
    "dglm_queue": 2745,
    "fine_list": 2147,
    "hm_list": 5144,
    "hm_list_buggy": 4952,
    "hsy_stack": 2635,
    "hw_queue": 602,
    "lazy_list": 9619,
    "ms_queue": 2904,
    "newcas": 100,
    "optimistic_list": 8501,
    "rdcss": 1690,
    "treiber": 1853,
    "treiber_hp": 3076,
    "treiber_hp_buggy": 3082,
}

#: Full renumberings an exploration at 2x2 computes
#: (``explore.renumberings``): a successor whose numbering moves is
#: renumbered once per heap object and root reference lists.  Once per
#: successor, ms_queue renumbered 11,552, hm_list 9,929 and
#: treiber_hp_buggy 6,140.
RENUMBERINGS = {
    "ccas": 74,
    "dglm_queue": 4182,
    "fine_list": 625,
    "hm_list": 1127,
    "hm_list_buggy": 1166,
    "hsy_stack": 1814,
    "hw_queue": 0,
    "lazy_list": 1610,
    "ms_queue": 4554,
    "newcas": 0,
    "optimistic_list": 1480,
    "rdcss": 102,
    "treiber": 1814,
    "treiber_hp": 3002,
    "treiber_hp_buggy": 2914,
}


def test_golden_tables_cover_the_registry():
    keys = sorted(b.key for b in all_benchmarks())
    assert sorted(GOLDEN_AUT) == keys
    assert sorted(THREAD_STEPS) == keys
    assert sorted(RENUMBERINGS) == keys


@pytest.mark.parametrize("key", sorted(GOLDEN_AUT))
def test_golden_exploration_sizes(key):
    bench = get(key)
    stats = Stats()
    system = explore(
        bench.build(2), ClientConfig(2, 2, bench.default_workload()), stats=stats
    )
    assert stats.counters["explore.thread_steps"] == THREAD_STEPS[key]
    assert stats.counters["explore.renumberings"] == RENUMBERINGS[key]
    transitions, digest = GOLDEN_AUT[key]
    assert system.num_transitions == transitions
    assert hashlib.sha256(dumps_aut(system).encode()).hexdigest() == digest
    if key in GOLDEN:
        threads, ops, states, quotient_states = GOLDEN[key]
        assert (threads, ops, system.num_states) == (2, 2, states)
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
