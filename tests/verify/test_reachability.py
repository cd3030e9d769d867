"""The BEEH reachability verdict engine: monitor, search, pipeline.

Covers the monitor transition functions directly, the full pipeline
(three-valued verdicts, stats stages, budget governance, sharded
exploration), and the counterexample-validity property: any violation
witness must be an implementation trace the specification cannot
produce (the mirror of the LTL/diagnostics validity tests).
"""

import pytest
from hypothesis import given

from repro.lang import ClientConfig, atomic_spec, explore, queue_spec, spec_lts
from repro.objects import get
from repro.testing import is_trace_of, program_strategy
from repro.util.budget import BudgetExhausted, RunBudget
from repro.util.metrics import Stats
from repro.verify import check_linearizability_reachability, reachability_search
from repro.verify.reachability import (
    initial_monitor,
    monitor_after_call,
    monitor_after_return,
)

NEWCAS = get("newcas")


# ----------------------------------------------------------------------
# the specification monitor
# ----------------------------------------------------------------------

def test_monitor_tracks_a_justifiable_history():
    spec = queue_spec()
    mset = initial_monitor(spec)
    assert mset  # all-idle is always justifiable
    mset = monitor_after_call(spec, mset, 1, "enq", (1,))
    mset = monitor_after_call(spec, mset, 2, "deq", ())
    # deq may return 1 only if enq linearized first -- both orders are
    # still open, so the set is non-empty.
    survived = monitor_after_return(spec, mset, 2, "deq", 1)
    assert survived
    # ...and the enq can then complete.
    assert monitor_after_return(spec, survived, 1, "enq", None)


def test_monitor_empties_on_an_impossible_return():
    spec = queue_spec()
    mset = initial_monitor(spec)
    mset = monitor_after_call(spec, mset, 1, "deq", ())
    # Nothing was ever enqueued: deq can only return EMPTY, not 5.
    assert monitor_after_return(spec, mset, 1, "deq", 5) == frozenset()


def test_monitor_drops_double_calls():
    spec = queue_spec()
    mset = initial_monitor(spec)
    mset = monitor_after_call(spec, mset, 1, "enq", (1,))
    # A second call by a busy thread cannot extend any configuration.
    assert monitor_after_call(spec, mset, 1, "enq", (2,)) == frozenset()


def test_monitor_recloses_after_return():
    # After t1's return filters the set, t2's still-pending op must be
    # linearizable against the *new* abstract states: the set has to be
    # re-closed, not just filtered.
    spec = queue_spec()
    mset = initial_monitor(spec)
    mset = monitor_after_call(spec, mset, 1, "enq", (1,))
    mset = monitor_after_return(spec, mset, 1, "enq", None)
    mset = monitor_after_call(spec, mset, 2, "deq", ())
    assert monitor_after_return(spec, mset, 2, "deq", 1)


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------

def test_reachability_result_fields():
    result = check_linearizability_reachability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
    )
    assert result.linearizable
    assert result.verdict == "TRUE"
    assert result.counterexample is None
    assert result.object_name == "newcas"
    assert result.method == "reachability"
    assert result.impl_states > 0
    assert result.product_states >= result.impl_states
    assert result.monitor_states > 0
    assert result.num_threads == 2 and result.ops_per_thread == 1
    assert result.total_seconds > 0
    assert "no counterexample" in result.render_counterexample()


def test_reachability_counterexample_render():
    bench = get("hm_list_buggy")
    result = check_linearizability_reachability(
        bench.build(2), bench.spec(),
        num_threads=2, ops_per_thread=2,
        workload=[("add", (1,)), ("remove", (1,))],
    )
    assert result.linearizable is False
    text = result.render_counterexample()
    assert "remove" in text
    assert "no linearization" in text


def test_workload_is_required():
    with pytest.raises(ValueError):
        check_linearizability_reachability(NEWCAS.build(2), NEWCAS.spec())


def test_reachability_stats_populated():
    stats = Stats()
    result = check_linearizability_reachability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        stats=stats,
    )
    assert result.stats is stats
    for name in ("explore", "reachability"):
        assert stats.stage_seconds[name] >= 0
    assert stats.counters["explore.states"] == result.impl_states
    assert stats.counters["reachability.product_states"] == result.product_states
    assert stats.counters["reachability.monitor_states"] == result.monitor_states


def test_max_states_gives_unknown_in_explore_phase():
    bench = get("ms_queue")
    result = check_linearizability_reachability(
        bench.build(2), bench.spec(),
        num_threads=2, ops_per_thread=2,
        workload=bench.default_workload(),
        max_states=50,
    )
    assert result.linearizable is None
    assert result.verdict == "UNKNOWN"
    assert result.exhaustion is not None
    assert result.exhaustion.phase == "explore"


def test_zero_deadline_gives_unknown():
    result = check_linearizability_reachability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=RunBudget(deadline_seconds=0.0),
    )
    assert result.verdict == "UNKNOWN"
    assert result.exhaustion is not None


def test_search_budget_fires_in_reachability_phase():
    lts = explore(
        NEWCAS.build(2),
        ClientConfig(2, 1, NEWCAS.default_workload()),
    )
    with pytest.raises(BudgetExhausted) as excinfo:
        reachability_search(
            lts, NEWCAS.spec(), budget=RunBudget(deadline_seconds=0.0)
        )
    assert excinfo.value.exhaustion.phase == "reachability"


def test_non_history_labels_are_rejected():
    from repro.core.lts import make_lts
    from repro.lang.state import ModelError

    lts = make_lts(2, 0, [(0, "not-a-history-label", 1)])
    with pytest.raises(ModelError):
        reachability_search(lts, queue_spec())


# ----------------------------------------------------------------------
# counterexample validity (satellite: witness must replay)
# ----------------------------------------------------------------------

def _assert_valid_witness(impl, spec, bounds, workload, witness):
    num_threads, ops_per_thread = bounds
    spec_system = spec_lts(spec, num_threads, ops_per_thread, workload)
    assert is_trace_of(impl, list(witness)), (
        "violation witness is not an implementation trace"
    )
    assert not is_trace_of(spec_system, list(witness)), (
        "violation witness is a specification trace (so it IS linearizable)"
    )


def test_hm_list_buggy_witness_is_valid():
    bench = get("hm_list_buggy")
    workload = [("add", (1,)), ("remove", (1,))]
    result = check_linearizability_reachability(
        bench.build(2), bench.spec(),
        num_threads=2, ops_per_thread=2, workload=workload,
    )
    assert result.linearizable is False
    impl = explore(bench.build(2), ClientConfig(2, 2, workload))
    _assert_valid_witness(
        impl, bench.spec(), (2, 2), workload, result.counterexample
    )


@given(program_strategy())
def test_random_program_witnesses_are_valid(drawn):
    program, workload = drawn
    spec = atomic_spec(program)
    try:
        impl = explore(
            program, ClientConfig(2, 1, workload, max_states=2000)
        )
    except BudgetExhausted:
        return
    search = reachability_search(impl, spec)
    if search.holds:
        return
    _assert_valid_witness(
        impl, spec, (2, 1), workload, search.counterexample
    )
