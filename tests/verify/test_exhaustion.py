"""Three-valued verdicts under exhausted budgets, for every pipeline.

The robustness contract: no verify pipeline raises on budget
exhaustion -- each returns an UNKNOWN result carrying a structured
:class:`~repro.util.budget.Exhaustion` record, and a generous budget
changes nothing about the verdict.
"""

import pytest

from repro.objects import get
from repro.util.budget import (
    FALSE,
    TRUE,
    UNKNOWN,
    CancellationToken,
    RunBudget,
)
from repro.verify import (
    check_linearizability,
    check_lock_freedom_abstract,
    check_lock_freedom_auto,
    check_obstruction_freedom,
)

NEWCAS = get("newcas")


def _zero_budget():
    return RunBudget(deadline_seconds=0.0)


def test_linearizability_unknown_at_zero_deadline():
    result = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=_zero_budget(),
    )
    assert result.linearizable is None
    assert result.verdict == UNKNOWN
    assert result.exhaustion.reason == "deadline"
    assert result.exhaustion.phase == "explore"
    # partial progress is reported, not lost
    assert result.total_seconds >= 0
    assert "deadline" in result.exhaustion.render()


def test_lock_freedom_unknown_at_zero_deadline():
    result = check_lock_freedom_auto(
        NEWCAS.build(2), num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=_zero_budget(),
    )
    assert result.lock_free is None
    assert result.verdict == UNKNOWN
    assert result.exhaustion.reason == "deadline"


def test_abstract_lock_freedom_unknown_at_zero_deadline():
    bench = get("ccas")
    result = check_lock_freedom_abstract(
        bench.build(2), bench.abstract(2),
        num_threads=2, ops_per_thread=1,
        workload=bench.default_workload(),
        budget=_zero_budget(),
    )
    assert result.lock_free is None
    assert result.verdict == UNKNOWN
    assert result.exhaustion is not None


def test_obstruction_freedom_unknown_at_zero_deadline():
    result = check_obstruction_freedom(
        NEWCAS.build(2), num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=_zero_budget(),
    )
    assert result.obstruction_free is None
    assert result.verdict == UNKNOWN
    assert result.exhaustion.reason == "deadline"


def test_generous_budget_leaves_verdicts_intact():
    budget = RunBudget(deadline_seconds=3600.0)
    lin = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=budget,
    )
    assert lin.verdict == TRUE
    assert lin.exhaustion is None
    lock = check_lock_freedom_auto(
        NEWCAS.build(2), num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=budget,
    )
    assert lock.verdict == TRUE
    assert lock.exhaustion is None


def test_false_verdict_is_false_not_unknown():
    bench = get("hw_queue")
    result = check_lock_freedom_auto(
        bench.build(2), num_threads=2, ops_per_thread=1,
        workload=[("deq", ())],
        budget=RunBudget(deadline_seconds=3600.0),
    )
    assert result.lock_free is False
    assert result.verdict == FALSE
    assert result.exhaustion is None


def test_cancellation_token_yields_interrupted_unknown():
    token = CancellationToken()
    token.set()
    result = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=RunBudget(token=token),
    )
    assert result.verdict == UNKNOWN
    assert result.exhaustion.reason == "interrupted"


@pytest.mark.parametrize("reason,budget_kwargs", [
    ("states", {"max_states": 5}),
])
def test_count_caps_surface_their_reason(reason, budget_kwargs):
    # The one state cap is the pipeline's max_states, which the
    # explorer enforces.
    result = check_linearizability(
        NEWCAS.build(2), NEWCAS.spec(),
        num_threads=2, ops_per_thread=1,
        workload=NEWCAS.default_workload(),
        budget=RunBudget(),
        **budget_kwargs,
    )
    assert result.verdict == UNKNOWN
    assert result.exhaustion.reason == reason
    assert result.exhaustion.phase == "explore"


def test_exhaustion_phase_names_the_loop():
    # The phase in the record names the loop where the budget actually
    # ran out, not just "somewhere in the pipeline".
    from repro.core import branching_partition
    from repro.lang import ClientConfig, explore
    from repro.util.budget import BudgetExhausted

    lts = explore(
        NEWCAS.build(2), ClientConfig(2, 1, NEWCAS.default_workload())
    )
    with pytest.raises(BudgetExhausted) as exc:
        branching_partition(lts, budget=_zero_budget())
    assert exc.value.phase == "refinement"
    with pytest.raises(BudgetExhausted) as exc:
        branching_partition(lts, reduce=True, budget=_zero_budget())
    assert exc.value.phase == "reduce"
