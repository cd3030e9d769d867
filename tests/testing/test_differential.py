"""Tests for the differential fuzz harness itself.

Two things need proving: a correct engine produces *zero* disagreements
over a substantial seeded run (the acceptance bar for ``repro fuzz``),
and a deliberately broken engine is caught quickly by the same checks.
"""

import json
import os

import pytest

from repro.core import make_lts
from repro.testing import (
    MUTATIONS,
    check_equivalences,
    check_instance,
    check_seeded_refinement,
    check_trace_refinement,
    check_verdict_engines,
    parity_seed,
    run_fuzz,
    shrink_lts,
)
from repro.testing import differential


def test_check_instance_clean_on_classic_examples():
    examples = [
        make_lts(2, 0, [(0, "tau", 0)]),
        make_lts(6, 0, [
            (0, "tau", 1), (0, "b", 2), (1, "a", 2),
            (3, "tau", 4), (3, "b", 5), (3, "a", 5), (4, "a", 5),
        ]),
    ]
    for lts in examples:
        assert check_instance(lts) == []


def test_check_trace_refinement_clean_both_verdicts():
    impl = make_lts(3, 0, [(0, "a", 1), (0, "c", 2)])
    spec = make_lts(2, 0, [(0, "a", 1)])
    # holds direction and fails direction both cross-check cleanly
    assert check_trace_refinement(spec, impl) == []
    assert check_trace_refinement(impl, spec) == []


def test_parity_seed_and_seeded_check_clean():
    lts = make_lts(4, 0, [(0, "a", 1), (2, "a", 3)])
    assert parity_seed(lts) == [0, 1, 0, 1]
    assert check_seeded_refinement(lts) == []


def test_clean_fuzz_run_has_no_disagreements():
    report = run_fuzz(seed=0, n=60)
    # The three verdict-engine canaries and the four step-cache canaries
    # run before the n requested instances, so they show up in the
    # instance count.
    assert report.instances + report.skipped == 60 + 3 + 4
    assert report.disagreements == []
    assert report.checks > 0
    assert "disagreements=0" in report.render()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutation_is_caught(mutation):
    report = run_fuzz(seed=0, n=100, mutate=mutation)
    assert report.disagreements, f"harness failed to catch {mutation}"
    # mutation runs stop at the first hit and never pollute the corpus
    assert all(case.path is None for case in report.cases)


@pytest.mark.parametrize(
    "mutation",
    [
        "splitter-drop-smaller-half",
        "splitter-skip-dirty-preds",
        "skip-divergence-mark",
    ],
)
def test_splitter_mutations_are_caught_by_oracles(mutation):
    # Bugs injected into the splitter queue itself must be caught by
    # the independent relational oracles, unseeded or seeded (or, for a
    # lost splitter, also by the equivalence-order law that relates the
    # engine's own answers).
    report = run_fuzz(seed=0, n=100, mutate=mutation)
    assert report.disagreements
    assert {d.kind for d in report.disagreements} <= {
        "relation", "seeded", "law",
    }


def test_check_verdict_engines_clean_on_canaries():
    # The canary programs are the deterministic fixtures the fuzz loop
    # runs first; a healthy engine pair must agree on both.
    from repro.lang import atomic_spec

    for name, program, workload in differential._canary_programs():
        disagreements = check_verdict_engines(
            program, atomic_spec(program), workload=workload
        )
        assert disagreements == [], (name, [d.render() for d in disagreements])


@pytest.mark.parametrize(
    "mutation",
    [
        "drop-monitor-transition",
        "skip-violation-state",
        "onthefly-skip-frontier-check",
    ],
)
def test_monitor_mutations_are_caught_by_canaries_alone(mutation):
    # n=0 requests no random instances, so any catch must come from the
    # canary programs -- each mutation has a canary built to trip it.
    report = run_fuzz(seed=0, n=0, mutate=mutation)
    assert report.disagreements, f"canaries failed to catch {mutation}"
    assert {d.kind for d in report.disagreements} == {"verdict"}


def test_step_cache_mutation_is_caught_by_registry_canaries_alone():
    # Random programs read no node fields: n=0 leaves only the canaries.
    report = run_fuzz(seed=0, n=0, mutate="step-cache-ignore-read-value")
    assert report.disagreements
    found = report.disagreements[0]
    assert found.kind == "step-cache"
    assert found.meta["program"] in differential.STEP_CACHE_CANARIES
    assert found.lts is not None and found.lts.num_states > 0


def test_verdict_disagreements_carry_replay_and_meta(tmp_path):
    # Inject the monitor mutation *around* a plain run so the corpus
    # writer path (mutate=None) is exercised for verdict cases too.
    corpus = tmp_path / "corpus"
    with MUTATIONS["skip-violation-state"]():
        report = run_fuzz(seed=0, n=0, corpus_dir=str(corpus), stop_after=1)
        assert report.disagreements
        found = report.disagreements[0]
        case = report.cases[0]
        # Shrinking preserved the failure: while the mutation is still
        # active the replay closure flags the shrunk instance.
        assert found.replay is not None and found.replay(case.lts)
    assert found.kind == "verdict"
    assert case.path is not None and os.path.exists(case.path)
    meta_path = case.path.replace(".aut", ".meta.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    assert meta["kind"] == "verdict"
    assert meta["program"] in ("canary_flag", "canary_blink")
    assert meta["workload"]


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        run_fuzz(seed=0, n=1, mutate="no-such-bug")


def test_mutation_contexts_restore_the_engine():
    lts = make_lts(3, 0, [(0, "tau", 1), (1, "a", 2)])
    for name, mutation in MUTATIONS.items():
        with mutation():
            pass
        assert check_equivalences(lts) == [], f"{name} leaked after exit"


def test_shrink_lts_reaches_a_local_minimum():
    lts = make_lts(4, 0, [
        (0, "a", 1), (1, "b", 2), (2, "c", 3), (0, "tau", 3),
    ])

    def still_fails(candidate):
        return any(
            candidate.action_labels[aid] == "b"
            for _, aid, _ in candidate.transitions()
        )

    shrunk = shrink_lts(lts, still_fails)
    assert still_fails(shrunk)
    assert shrunk.num_transitions == 1


def test_time_budget_cuts_the_run_short():
    report = run_fuzz(seed=0, n=100000, time_budget=0.2)
    assert report.instances < 100000
    assert report.elapsed >= 0.2


def test_fuzz_writes_shrunk_corpus_cases(tmp_path):
    # Force a "failure" with a mutation-free broken check by injecting
    # the divergence mutation manually around a plain run, so the
    # corpus writer path (mutate=None) is exercised.
    corpus = tmp_path / "corpus"
    with MUTATIONS["skip-divergence-mark"]():
        report = run_fuzz(
            seed=0, n=50, corpus_dir=str(corpus), stop_after=1
        )
    assert report.disagreements
    case = report.cases[0]
    assert case.path is not None and os.path.exists(case.path)
    meta_path = case.path.replace(".aut", ".meta.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    assert meta["schema"] == "repro.fuzz-case/v1"
    # The splitter stops marking divergence, so the divergence-sensitive
    # partition disagrees with its relational oracle.
    assert meta["kind"] == "relation"
    assert meta["name"] == "branching-div"


def test_generate_instance_mix_is_deterministic():
    import random

    first = [
        differential._generate_instance(random.Random(1), i, 6, 0.35, True)
        for i in range(12)
    ]
    second = [
        differential._generate_instance(random.Random(1), i, 6, 0.35, True)
        for i in range(12)
    ]
    for (a, a_ctx), (b, b_ctx) in zip(first, second):
        assert (a is None) == (b is None)
        assert (a_ctx is None) == (b_ctx is None)
        if a is not None:
            assert a.num_states == b.num_states
            assert list(a.transitions()) == list(b.transitions())
        if a_ctx is not None:
            # same program seed and workload on both runs
            assert a_ctx[2] == b_ctx[2]
            assert a_ctx[1] == b_ctx[1]
