"""Shared backoff policy: schedule regression, jitter bounds, retry loop.

The policy was extracted from the supervisor's inline requeue formula;
the first test pins the extraction -- policy delays must equal the
historical ``min(base * 2**(n-1), cap)`` for every attempt number, or
shard requeue scheduling silently changed.
"""

import random

import pytest

from repro.parallel import ParallelConfig
from repro.util.retry import BackoffPolicy, RetriesExhausted, retry_call


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

def test_policy_matches_historical_supervisor_formula():
    parallel = ParallelConfig(workers=1)
    policy = parallel.backoff_policy()
    for attempt in range(1, 12):
        historical = min(
            parallel.backoff_base * (2 ** (attempt - 1)), parallel.backoff_cap
        )
        assert policy.delay(attempt) == historical


def test_policy_caps_and_grows():
    policy = BackoffPolicy(base=0.1, cap=1.0)
    delays = list(policy.delays(8))
    assert delays[0] == pytest.approx(0.1)
    assert delays[1] == pytest.approx(0.2)
    assert delays == sorted(delays)  # monotone
    assert delays[-1] == 1.0  # capped
    assert max(delays) <= 1.0


def test_policy_without_jitter_is_deterministic():
    policy = BackoffPolicy(base=0.05, cap=2.0)
    assert list(policy.delays(6)) == list(policy.delays(6))


def test_jitter_stays_within_relative_bounds():
    policy = BackoffPolicy(base=0.2, cap=5.0, jitter=0.5)
    rng = random.Random(42)
    for attempt in range(1, 10):
        nominal = min(0.2 * 2 ** (attempt - 1), 5.0)
        for _ in range(50):
            delay = policy.delay(attempt, rng=rng)
            assert 0.5 * nominal <= delay <= 1.5 * nominal


def test_invalid_policies_rejected():
    with pytest.raises(ValueError):
        BackoffPolicy(base=-0.1)
    with pytest.raises(ValueError):
        BackoffPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        BackoffPolicy().delay(0)


# ----------------------------------------------------------------------
# retry_call
# ----------------------------------------------------------------------

def test_retry_call_returns_first_success():
    calls = []

    def fn():
        calls.append(1)
        if len(calls) < 3:
            raise OSError("transient")
        return "ok"

    slept = []
    result = retry_call(
        fn, attempts=5, policy=BackoffPolicy(base=0.01, cap=0.04),
        sleep=slept.append,
    )
    assert result == "ok"
    assert len(calls) == 3
    # One sleep per failed attempt, following the schedule.
    assert slept == [pytest.approx(0.01), pytest.approx(0.02)]


def test_retry_call_raises_retries_exhausted_with_last_cause():
    def fn():
        raise ConnectionRefusedError("nope")

    slept = []
    with pytest.raises(RetriesExhausted) as info:
        retry_call(
            fn, attempts=3, policy=BackoffPolicy(base=0.01, cap=1.0),
            sleep=slept.append,
        )
    assert info.value.attempts == 3
    assert isinstance(info.value.last, ConnectionRefusedError)
    assert len(slept) == 2  # no sleep after the final failure


def test_retry_call_does_not_retry_unexpected_exceptions():
    calls = []

    def fn():
        calls.append(1)
        raise ValueError("a bug, not a transient")

    with pytest.raises(ValueError):
        retry_call(
            fn, attempts=5, policy=BackoffPolicy(), sleep=lambda _s: None,
        )
    assert len(calls) == 1


def test_retry_call_rejects_zero_attempts():
    with pytest.raises(ValueError):
        retry_call(lambda: 1, attempts=0, policy=BackoffPolicy())
