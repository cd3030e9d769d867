"""The ``verify`` request of the verdict job: one exploration, three
engines, one combined verdict and exit code."""

import itertools

import pytest

from repro.util.budget import (
    FALSE,
    REASON_DEADLINE,
    REASON_INTERRUPTED,
    TRUE,
    UNKNOWN,
    CancellationToken,
    RunBudget,
)
from repro.util.metrics import Stats
from repro.verify.job import _result, build_request, run_job


@pytest.mark.parametrize("cancel", ["before", "after-exploring"])
def test_interrupted_verify_job_is_unknown_from_one_exploration(cancel):
    token = CancellationToken()
    if cancel == "before":
        token.set()
    sinks = {}
    result = run_job(
        build_request("verify", "newcas", ops=1),
        budget=RunBudget(token=token),
        sink=lambda name: sinks.setdefault(name, Stats()),
        on_explored=lambda _impl: token.set(),
    )
    assert result["exit_code"] == 130
    assert result["verdict"] == UNKNOWN
    for engine in ("quotient", "lockfree", "obstruction"):
        assert result[engine]["verdict"] == UNKNOWN
        assert result[engine]["exhaustion"]["reason"] == REASON_INTERRUPTED
    explored = [name for name, stats in sinks.items()
                if "explore" in stats.stage_seconds]
    assert explored == ["linearizability t=2 ops=1 v=2"]


def _reference_exit(verdicts, reasons):
    """The exit code by the rule ``repro verify`` has always applied:
    any interrupted part 130, else FALSE 1 over UNKNOWN 2 over TRUE 0."""
    codes = [130 if reason == REASON_INTERRUPTED else
             {TRUE: 0, FALSE: 1, UNKNOWN: 2}[verdict]
             for verdict, reason in zip(verdicts, reasons)]
    for code in (130, 1, 2):
        if code in codes:
            return code
    return 0


def test_verify_parts_combine_by_the_verify_rule():
    request = build_request("verify", "newcas", ops=1)
    outcomes = [(TRUE, None), (FALSE, None), (UNKNOWN, REASON_DEADLINE),
                (UNKNOWN, REASON_INTERRUPTED)]
    # A lock-based object's one part, or the three of a non-blocking one.
    for parts in itertools.chain(itertools.product(outcomes, repeat=1),
                                 itertools.product(outcomes, repeat=3)):
        engines = ("quotient", "lockfree", "obstruction")[:len(parts)]
        result = _result(request, [
            {"engine": engine, "verdict": verdict, "seconds": 0.0,
             "exhaustion": reason and {"reason": reason, "phase": "check",
                                       "render": reason}}
            for engine, (verdict, reason) in zip(engines, parts)
        ], 0.0)
        verdicts, reasons = zip(*parts)
        assert result["exit_code"] == _reference_exit(verdicts, reasons), parts
        assert result["verdict"] == next(
            v for v in (FALSE, UNKNOWN, TRUE) if v in verdicts
        ), parts
