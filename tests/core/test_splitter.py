"""Engine parity: the splitter-queue engine vs the relational oracles.

The splitter queue (``repro.core.splitter``) is the one refinement
engine.  Its independent witness is the naive greatest-fixed-point
oracles of ``repro.testing.oracles``, which share no code with it: on
every relation variant with an oracle -- strong (plain and seeded),
branching and divergence-sensitive branching (with and without the
reduction pass) and weak -- the partition must induce exactly the
oracle's relation.  The instances are the checked-in corpus,
Hypothesis-generated LTSs and explored random client programs, all of
at most 40 states because the oracles are quartic.
"""

import glob
import os

import pytest
from hypothesis import given, settings

from repro.core import (
    branching_partition,
    is_refinement,
    make_lts,
    strong_partition,
    weak_partition,
)
from repro.core.aut import read_aut
from repro.core.lts import LTS
from repro.lang.client import StateExplosion
from repro.testing import oracles
from repro.testing.differential import parity_seed
from repro.testing.generators import (
    explore_random_program,
    lts_strategy,
    tau_heavy_lts_strategy,
)
from repro.util.metrics import Stats

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS_CASES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.aut")))

#: Largest instance handed to the oracles.
MAX_ORACLE_STATES = 40

#: ``name -> (engine partition, oracle relation)``, both over one LTS.
RELATIONS = {
    "strong": (strong_partition, oracles.strong_bisimulation_relation),
    "strong-seeded": (
        lambda lts: strong_partition(lts, initial=parity_seed(lts)),
        lambda lts: oracles.strong_bisimulation_relation(
            lts, initial=parity_seed(lts)
        ),
    ),
    "branching": (
        branching_partition, oracles.branching_bisimulation_relation,
    ),
    "branching-reduced": (
        lambda lts: branching_partition(lts, reduce=True),
        oracles.branching_bisimulation_relation,
    ),
    "branching-div": (
        lambda lts: branching_partition(lts, divergence=True),
        oracles.divergence_sensitive_branching_relation,
    ),
    "branching-div-reduced": (
        lambda lts: branching_partition(lts, divergence=True, reduce=True),
        oracles.divergence_sensitive_branching_relation,
    ),
    "weak": (weak_partition, oracles.weak_bisimulation_relation),
}


def _assert_parity(lts):
    assert lts.num_states <= MAX_ORACLE_STATES
    for name, (engine, oracle) in RELATIONS.items():
        block_of = engine(lts)
        mismatch = oracles.relation_agrees_with_partition(oracle(lts), block_of)
        assert mismatch is None, (
            f"{name}: splitter and oracle disagree on states {mismatch}"
        )
    # No oracle exists for the seeded branching and explicit-divergence
    # weak variants; they must at least refine what they are built on.
    seed = parity_seed(lts)
    assert is_refinement(branching_partition(lts, initial=seed), seed)
    assert is_refinement(
        weak_partition(lts, divergence=True), weak_partition(lts)
    )


# ----------------------------------------------------------------------
# hand-picked separating instances
# ----------------------------------------------------------------------

def test_parity_on_nondeterministic_preimages():
    # The classic reason Hopcroft's "smaller half only" shortcut is
    # unsound for LTSs: states with overlapping pre-images of both
    # constituents of a split block.  The full three-way split must
    # keep the engine on the oracle here.
    lts = make_lts(6, 0, [
        (0, "a", 2), (0, "a", 3),
        (1, "a", 3),
        (2, "b", 4), (3, "c", 5),
    ])
    _assert_parity(lts)
    strong = strong_partition(lts)
    assert strong[0] != strong[1]


def test_parity_on_tau_cycles_and_divergence():
    lts = make_lts(5, 0, [
        (0, "tau", 1), (1, "tau", 0),       # silent cycle: divergent
        (0, "a", 2),
        (3, "a", 4),                        # same visible move, no cycle
    ])
    _assert_parity(lts)
    plain = branching_partition(lts)
    div = branching_partition(lts, divergence=True)
    assert plain[0] == plain[3]
    assert div[0] != div[3]


def test_parity_on_inert_tau_chain_bottom_states():
    # Non-bottom states inherit their inert successors' signatures
    # (Groote-Vaandrager bottom-state discipline).
    lts = make_lts(5, 0, [
        (0, "tau", 1), (1, "tau", 2), (2, "a", 3), (2, "b", 4),
    ])
    _assert_parity(lts)
    blocks = branching_partition(lts)
    assert blocks[0] == blocks[1] == blocks[2]


def test_parity_on_empty_and_trivial_systems():
    empty = LTS()
    for engine, _oracle in RELATIONS.values():
        assert engine(empty) == []
    _assert_parity(make_lts(1, 0, []))
    _assert_parity(make_lts(1, 0, [(0, "tau", 0)]))


def test_splitter_records_refinement_counters():
    lts = make_lts(4, 0, [(0, "a", 1), (0, "a", 2), (1, "b", 3)])
    for fn, kwargs in (
        (strong_partition, {}),
        (branching_partition, {}),
        (weak_partition, {}),
        (branching_partition, {"divergence": True}),
    ):
        stats = Stats()
        block_of = fn(lts, stats=stats, **kwargs)
        counters = stats.stage_counters("refinement")
        assert counters["states"] == lts.num_states
        assert counters["blocks"] == len(set(block_of))


# ----------------------------------------------------------------------
# corpus replay
# ----------------------------------------------------------------------

def test_corpus_is_present():
    assert len(CORPUS_CASES) >= 5


@pytest.mark.parametrize(
    "path", CORPUS_CASES, ids=[os.path.basename(p) for p in CORPUS_CASES]
)
def test_corpus_engine_parity(path):
    _assert_parity(read_aut(path).freeze())


# ----------------------------------------------------------------------
# Hypothesis generators
# ----------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(lts_strategy())
def test_engine_parity_on_generic_ltss(lts):
    _assert_parity(lts)


@settings(max_examples=120, deadline=None)
@given(tau_heavy_lts_strategy())
def test_engine_parity_on_tau_heavy_ltss(lts):
    _assert_parity(lts)


# ----------------------------------------------------------------------
# explored client programs
# ----------------------------------------------------------------------

def _small_program(index):
    """The ``index``-th random program (by seed) that fits the oracles."""
    found = -1
    for seed in range(1000):
        try:
            lts = explore_random_program(seed, max_states=MAX_ORACLE_STATES)
        except StateExplosion:
            continue
        found += 1
        if found == index:
            return lts
    raise AssertionError("no random program small enough for the oracles")


@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_engine_parity_on_explored_programs(index):
    _assert_parity(_small_program(index))
