"""Verification pipeline API tests (lightweight objects only)."""

import pytest

from repro.objects import get
from repro.verify import (
    check_linearizability,
    check_lock_freedom_abstract,
    check_lock_freedom_auto,
)

NEWCAS = get("newcas")
HW = get("hw_queue")


def test_linearizability_result_fields():
    result = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
    )
    assert result.linearizable
    assert result.counterexample is None
    assert result.object_name == "newcas"
    assert result.impl_states > result.impl_quotient_states
    assert result.spec_states > 0
    assert result.num_threads == 2 and result.ops_per_thread == 1
    assert result.total_seconds > 0
    assert result.reduction_factor > 1
    assert "no counterexample" in result.render_counterexample()


def test_linearizability_counterexample_render():
    bench = get("hm_list_buggy")
    result = check_linearizability(
        bench.build(2), bench.spec(),
        num_threads=2, ops_per_thread=2,
        workload=[("add", (1,)), ("remove", (1,))],
    )
    assert not result.linearizable
    text = result.render_counterexample()
    assert "remove" in text and "initial state" in text


def test_lock_freedom_result_fields():
    result = check_lock_freedom_auto(
        NEWCAS.build(2), num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
    )
    assert result.lock_free
    assert result.diagnostic is None
    assert result.quotient_states < result.impl_states
    assert "no divergence" in result.render_diagnostic()


def test_lock_freedom_violation_diagnostic():
    result = check_lock_freedom_auto(
        HW.build(2), num_threads=2, ops_per_thread=1,
        workload=[("deq", ())],
    )
    assert not result.lock_free
    assert result.diagnostic is not None
    assert "divergence" in result.render_diagnostic()


def test_workload_is_required():
    with pytest.raises(ValueError):
        check_linearizability(NEWCAS.build(2), NEWCAS.spec())
    with pytest.raises(ValueError):
        check_lock_freedom_auto(NEWCAS.build(2))
    with pytest.raises(ValueError):
        check_lock_freedom_abstract(NEWCAS.build(2), NEWCAS.build(2))


def test_max_states_propagates():
    # The pipeline absorbs the StateExplosion into a three-valued
    # UNKNOWN result instead of letting it escape (see docs/ROBUSTNESS.md).
    bench = get("ms_queue")
    result = check_linearizability(
        bench.build(2), bench.spec(),
        num_threads=2, ops_per_thread=2,
        workload=bench.default_workload(),
        max_states=50,
    )
    assert result.linearizable is None
    assert result.verdict == "UNKNOWN"
    assert result.exhaustion is not None
    assert result.exhaustion.reason == "states"
    assert result.exhaustion.phase == "explore"


def test_abstract_pipeline_reports_sizes():
    bench = get("ccas")
    result = check_lock_freedom_abstract(
        bench.build(2), bench.abstract(2),
        num_threads=2, ops_per_thread=1,
        workload=bench.default_workload(),
    )
    assert result.div_bisimilar
    assert result.lock_free
    assert result.object_name == "ccas"
    assert result.abstract_name == "abstract-ccas"
    assert result.seconds > 0


def test_ltl_route_agrees_with_theorem_5_9():
    """Lock-freedom via the LTL formula == via div-bisim (both routes)."""
    from repro.lang import ClientConfig, explore
    from repro.ltl import check_lock_freedom_ltl

    for key, expected in (("newcas", True), ("hw_queue", False)):
        bench = get(key)
        lts = explore(
            bench.build(2), ClientConfig(2, 1, bench.default_workload())
        )
        assert check_lock_freedom_ltl(lts).holds == expected
        auto = check_lock_freedom_auto(
            bench.build(2), num_threads=2, ops_per_thread=1,
            workload=bench.default_workload(),
        )
        assert auto.lock_free == expected


def test_lock_freedom_methods_agree():
    """The union (Thm 5.9) and tau-cycle routes give the same verdict."""
    for key in ("newcas", "hw_queue", "treiber", "treiber_hp_buggy"):
        bench = get(key)
        verdicts = []
        for method in ("union", "tau-cycle"):
            result = check_lock_freedom_auto(
                bench.build(2), num_threads=2, ops_per_thread=1,
                workload=bench.default_workload(), method=method,
            )
            verdicts.append(result.lock_free)
        assert verdicts[0] == verdicts[1]


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        check_lock_freedom_auto(
            NEWCAS.build(2), num_threads=1, ops_per_thread=1,
            workload=NEWCAS.default_workload(), method="bogus",
        )


def test_linearizability_stats_populated():
    from repro.util.metrics import Stats

    stats = Stats()
    result = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        stats=stats,
    )
    assert result.stats is stats
    for name in ("explore", "spec", "quotient", "quotient/refinement", "check"):
        assert stats.stage_seconds[name] >= 0
    assert stats.counters["explore.states"] == result.impl_states
    assert stats.counters["quotient.impl_states"] == result.impl_quotient_states
    assert stats.counters["quotient.spec_states"] == result.spec_quotient_states
    assert stats.counters["check.visited_pairs"] > 0
    # "splits" is the splitter engine's refinement counter.
    assert stats.counters["quotient/refinement.splits"] > 0
    assert stats.peak_rss_kb > 0


def test_lock_freedom_stats_populated():
    from repro.util.metrics import Stats

    for method in ("union", "tau-cycle"):
        stats = Stats()
        result = check_lock_freedom_auto(
            NEWCAS.build(2), num_threads=2, ops_per_thread=1,
            workload=NEWCAS.default_workload(), method=method,
            stats=stats,
        )
        assert result.stats is stats
        assert stats.counters["explore.states"] == result.impl_states
        assert stats.counters["quotient.impl_states"] == result.quotient_states
        assert stats.stage_seconds["check"] >= 0
        if method == "union":
            assert stats.counters["check/refinement.splits"] > 0


def test_stats_disabled_gives_identical_verdicts():
    from repro.util.metrics import Stats

    plain = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
    )
    assert plain.stats is None
    instrumented = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        stats=Stats(),
    )
    assert plain.linearizable == instrumented.linearizable
    assert plain.impl_states == instrumented.impl_states
    assert plain.impl_quotient_states == instrumented.impl_quotient_states
