"""Unit tests for the run-budget governance layer (repro.util.budget)."""

import os
import signal
import time

import pytest

from repro.util.budget import (
    ALL_REASONS,
    EXIT_FALSE,
    EXIT_INTERRUPTED,
    EXIT_TRUE,
    EXIT_UNKNOWN,
    FALSE,
    REASON_DEADLINE,
    REASON_INTERRUPTED,
    REASON_RSS,
    REASON_STATES,
    TRUE,
    UNKNOWN,
    BudgetExhausted,
    CancellationToken,
    Exhaustion,
    RunBudget,
    exit_code_for,
    verdict_of,
)


def test_verdict_of_maps_the_three_values():
    assert verdict_of(True) == TRUE
    assert verdict_of(False) == FALSE
    assert verdict_of(None) == UNKNOWN


def test_exit_codes():
    assert exit_code_for(TRUE) == EXIT_TRUE == 0
    assert exit_code_for(FALSE) == EXIT_FALSE == 1
    assert exit_code_for(UNKNOWN) == EXIT_UNKNOWN == 2
    assert EXIT_INTERRUPTED == 130


def test_unlimited_budget_never_fires():
    budget = RunBudget()
    for _ in range(1000):
        budget.check("explore", states=10**9, transitions=10**9)


def test_deadline_fires_on_first_strided_probe():
    budget = RunBudget(deadline_seconds=0.0)
    with pytest.raises(BudgetExhausted) as exc:
        budget.check("refinement", states=1, transitions=7, frontier=None)
    assert exc.value.reason == REASON_DEADLINE
    assert exc.value.phase == "refinement"
    # The loop's counters become the progress snapshot (None dropped).
    assert exc.value.progress == {"states": 1, "transitions": 7}


def test_first_check_after_the_deadline_raises():
    # The clock is read on every check, not every 32nd: a loop that
    # checks a few times (one check per thread) still stops at its
    # first check past the deadline.
    budget = RunBudget(deadline_seconds=0.2)
    for _ in range(5):
        budget.check("explore", states=1)
    time.sleep(0.25)
    with pytest.raises(BudgetExhausted) as exc:
        budget.check("check", thread=1)
    assert exc.value.reason == REASON_DEADLINE
    assert exc.value.phase == "check"


def test_rss_probe_is_strided(monkeypatch):
    import repro.util.budget as budget_module

    probes = []
    monkeypatch.setattr(
        budget_module, "peak_rss_kb", lambda: probes.append(1) or 1
    )
    budget = RunBudget(deadline_seconds=3600.0, max_rss_kb=10**9)
    for _ in range(2 * budget_module.RSS_PROBE_STRIDE + 1):
        budget.check("explore", states=1)
    assert len(probes) == 3


def test_rss_cap_fires():
    budget = RunBudget(max_rss_kb=1)  # any real process exceeds 1 KiB
    with pytest.raises(BudgetExhausted) as exc:
        budget.check("check")
    assert exc.value.reason == REASON_RSS


def test_cancellation_token_fires_every_call():
    token = CancellationToken()
    budget = RunBudget(token=token)
    budget.check("explore")
    token.set()
    with pytest.raises(BudgetExhausted) as exc:
        budget.check("explore", states=42)
    assert exc.value.reason == REASON_INTERRUPTED
    token.clear()
    budget.check("explore")


def test_armed_gate_opens_exactly_when_a_check_can_raise():
    assert not RunBudget().armed
    assert RunBudget(deadline_seconds=60.0).armed
    assert RunBudget(max_rss_kb=10**9).armed
    token = CancellationToken()
    budget = RunBudget(token=token)
    assert not budget.armed
    token.set()
    assert budget.armed
    token.clear()
    assert not budget.armed
    # A token set before the budget exists arms it at construction, and
    # clearing never closes the gate of a budget with a deadline.
    token.set()
    limited = RunBudget(deadline_seconds=60.0, token=token)
    assert RunBudget(token=token).armed and limited.armed
    token.clear()
    assert limited.armed


def test_token_set_from_another_thread_arms_the_budget():
    import threading

    token = CancellationToken()
    budget = RunBudget(token=token)
    setter = threading.Thread(target=token.set)
    setter.start()
    setter.join(timeout=5)
    assert not setter.is_alive()
    assert budget.armed
    with pytest.raises(BudgetExhausted) as exc:
        budget.check("explore", states=3)
    assert exc.value.reason == REASON_INTERRUPTED
    assert exc.value.progress == {"states": 3}


def test_token_does_not_keep_its_budgets_alive():
    import gc
    import weakref

    token = CancellationToken()
    budget = RunBudget(token=token)
    ref = weakref.ref(budget)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del budget  # no cycle: freed without a collection
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    token.set()  # a dead budget is skipped


def test_restart_resets_the_clock():
    budget = RunBudget(deadline_seconds=0.05)
    time.sleep(0.06)
    with pytest.raises(BudgetExhausted):
        budget.check("explore")
    budget.restart()
    budget.check("explore")  # fresh deadline window


def test_exhaustion_render_and_dict_round_trip():
    exhaustion = Exhaustion(
        reason=REASON_STATES, phase="explore", limit="max_states=50",
        progress={"states": 51},
    )
    text = exhaustion.render()
    assert "explore" in text and "max_states=50" in text and "states=51" in text
    payload = exhaustion.to_dict()
    assert payload["schema"] == "repro.exhaustion/v1"
    assert payload["reason"] == REASON_STATES
    assert payload["progress"] == {"states": 51}
    assert REASON_STATES in ALL_REASONS


def test_install_sigint_graceful_then_restores(monkeypatch):
    budget = RunBudget()
    previous = signal.getsignal(signal.SIGINT)
    with budget.install_sigint():
        os.kill(os.getpid(), signal.SIGINT)
        # first Ctrl-C: no KeyboardInterrupt, the token is set instead
        deadline = time.monotonic() + 2.0
        while not budget.token.is_set() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert budget.token.is_set()
        assert budget.armed
        with pytest.raises(BudgetExhausted) as exc:
            budget.check("explore")
        assert exc.value.reason == REASON_INTERRUPTED
    assert signal.getsignal(signal.SIGINT) == previous


def test_install_sigint_second_interrupt_raises():
    budget = RunBudget()
    with budget.install_sigint():
        handler = signal.getsignal(signal.SIGINT)
        handler(signal.SIGINT, None)
        with pytest.raises(KeyboardInterrupt):
            handler(signal.SIGINT, None)
