"""Obstruction-freedom checker tests."""

import time

import pytest

from repro.core.lts import LTS, TAU
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.util.budget import REASON_DEADLINE, UNKNOWN, RunBudget
from repro.verify import (
    check_obstruction_freedom,
    solo_tau_cycle_states,
    transition_thread,
)


def test_transition_thread_from_labels_and_annotations():
    lts = LTS()
    call = lts.action_id(("call", 2, "m", ()))
    assert transition_thread(lts, call, None) == 2
    assert transition_thread(lts, 0, "t1.L28") == 1
    assert transition_thread(lts, 0, "t12.atomic") == 12
    assert transition_thread(lts, 0, None) is None
    assert transition_thread(lts, 0, "weird") is None


def test_solo_cycles_separated_by_thread():
    lts = LTS()
    # t1 spins between 0 and 1; t2 has a single step elsewhere.
    lts.add_transition(0, TAU, 1, annotation="t1.A")
    lts.add_transition(1, TAU, 0, annotation="t1.B")
    lts.add_transition(1, TAU, 2, annotation="t2.C")
    assert set(solo_tau_cycle_states(lts, 1)) == {0, 1}
    assert solo_tau_cycle_states(lts, 2) == []


def test_mixed_thread_cycle_is_not_solo():
    lts = LTS()
    lts.add_transition(0, TAU, 1, annotation="t1.A")
    lts.add_transition(1, TAU, 0, annotation="t2.B")
    assert solo_tau_cycle_states(lts, 1) == []
    assert solo_tau_cycle_states(lts, 2) == []


@pytest.mark.parametrize("key,expected", [
    ("treiber", True),
    ("treiber_hp", True),
    ("treiber_hp_buggy", False),
    ("hw_queue", False),
    ("ms_queue", True),
    ("hsy_stack", True),
])
def test_benchmark_obstruction_freedom(key, expected):
    bench = get(key)
    result = check_obstruction_freedom(
        bench.build(2), num_threads=2, ops_per_thread=2,
        workload=bench.default_workload(),
    )
    assert result.obstruction_free == expected
    if not expected:
        assert result.spinning_thread is not None
        text = result.render_diagnostic()
        assert "spins in isolation" in text
        # Every cycle step belongs to the spinning thread.
        for step in result.diagnostic.cycle:
            assert step.annotation.startswith(f"t{result.spinning_thread}.")
    else:
        assert "no solo divergence" in result.render_diagnostic()


def test_obstruction_freedom_implied_by_lock_freedom():
    # Lock-freedom implies obstruction-freedom: check agreement on the
    # benchmarks where we know both verdicts.
    for key in ("treiber", "ms_queue", "dglm_queue", "newcas"):
        bench = get(key)
        result = check_obstruction_freedom(
            bench.build(2), num_threads=2, ops_per_thread=1,
            workload=bench.default_workload(),
        )
        assert result.obstruction_free


def test_workload_required():
    bench = get("treiber")
    with pytest.raises(ValueError):
        check_obstruction_freedom(bench.build(2))


def test_shared_exploration_honours_an_expired_deadline():
    # `verify` hands its one exploration to this check together with a
    # budget that has already made checks; the deadline passes after
    # them.  The check makes one budget check per thread, and the first
    # of them must stop it: hw_queue would otherwise decide FALSE.
    bench = get("hw_queue")
    program, workload = bench.build(2), bench.default_workload()
    impl = explore(program, ClientConfig(2, 2, workload))
    budget = RunBudget(deadline_seconds=0.2)
    for _ in range(5):
        budget.check("explore", states=impl.num_states)
    time.sleep(0.25)
    result = check_obstruction_freedom(
        program, num_threads=2, ops_per_thread=2, workload=workload,
        budget=budget, impl_system=impl,
    )
    assert result.verdict == UNKNOWN
    assert result.exhaustion.reason == REASON_DEADLINE
    assert result.diagnostic is None
