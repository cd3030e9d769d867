"""Replay every checked-in corpus case through the differential checks.

``tests/corpus/`` holds Aldebaran LTSs with a ``.meta.json`` sidecar:
seeded classics (the separating examples for the equivalence lattice)
plus any instance the fuzz harness ever shrank from a real
disagreement.  Each case must stay clean under ``check_instance``, and
its declared expected verdicts must keep holding -- a corpus case is a
permanent regression test, not just an archive entry.
"""

import glob
import json
import os

import pytest

from repro.core.aut import read_aut
from repro.lang import queue_spec, register_spec, set_spec, spec_lts, stack_spec
from repro.testing import check_instance, quotient_refinement_verdict
from repro.testing.differential import ENGINE_PARTITIONS
from repro.verify import reachability_search

#: Spec factories a verdict corpus case may name in its ``.meta.json``.
SPEC_BUILDERS = {
    "queue": queue_spec,
    "stack": stack_spec,
    "set": set_spec,
    "register": register_spec,
}

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CASES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.aut")))


def _load(path):
    lts = read_aut(path).freeze()
    meta_path = path[: -len(".aut")] + ".meta.json"
    with open(meta_path) as handle:
        meta = json.load(handle)
    return lts, meta


def test_corpus_is_seeded():
    assert len(CASES) >= 5, "the checked-in corpus went missing"


@pytest.mark.parametrize(
    "path", CASES, ids=[os.path.basename(p) for p in CASES]
)
def test_corpus_case_metadata_is_well_formed(path):
    lts, meta = _load(path)
    assert meta["schema"] in ("repro.corpus-case/v1", "repro.fuzz-case/v1")
    assert lts.num_states >= 1
    for expectation in meta.get("expect", []):
        assert expectation["relation"] in ENGINE_PARTITIONS
        assert 0 <= expectation["left"] < lts.num_states
        assert 0 <= expectation["right"] < lts.num_states


@pytest.mark.parametrize(
    "path", CASES, ids=[os.path.basename(p) for p in CASES]
)
def test_corpus_case_passes_differential_checks(path):
    lts, _ = _load(path)
    disagreements = check_instance(lts)
    assert disagreements == [], [d.render() for d in disagreements]


@pytest.mark.parametrize(
    "path", CASES, ids=[os.path.basename(p) for p in CASES]
)
def test_corpus_case_expected_verdicts_hold(path):
    lts, meta = _load(path)
    for expectation in meta.get("expect", []):
        block_of = ENGINE_PARTITIONS[expectation["relation"]](lts)
        equivalent = block_of[expectation["left"]] == block_of[expectation["right"]]
        assert equivalent == expectation["equivalent"], (
            f"{os.path.basename(path)}: {expectation['relation']} on "
            f"({expectation['left']}, {expectation['right']}) expected "
            f"{expectation['equivalent']}, engine says {equivalent}"
        )


@pytest.mark.parametrize(
    "path", CASES, ids=[os.path.basename(p) for p in CASES]
)
def test_corpus_verdict_cases_replay_on_both_engines(path):
    """Linearizability corpus cases (``kind: verdict``) must keep their
    expected verdict under *both* verdict engines: the quotient/trace-
    refinement pipeline and the BEEH reachability backend."""
    lts, meta = _load(path)
    verdict = meta.get("verdict")
    if verdict is None:
        pytest.skip("not a verdict case")
    spec = SPEC_BUILDERS[verdict["spec"]]()
    workload = [(m, tuple(args)) for m, args in verdict["workload"]]
    spec_system = spec_lts(
        spec, verdict["num_threads"], verdict["ops_per_thread"], workload
    )
    search = reachability_search(lts, spec)
    reach = "TRUE" if search.holds else "FALSE"
    quotient = (
        "TRUE" if quotient_refinement_verdict(lts, spec_system) else "FALSE"
    )
    assert reach == quotient == verdict["expect"], (
        f"{os.path.basename(path)}: expected {verdict['expect']}, "
        f"reachability says {reach}, quotient says {quotient}"
    )
