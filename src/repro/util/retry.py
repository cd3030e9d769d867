"""Capped exponential backoff with optional jitter, shared service-wide.

Every retry loop in the package -- the supervisor requeuing a failed
shard, the socket client reconnecting to a restarted daemon -- wants
the same delay schedule: exponential growth from a small base, a hard
cap so one pathological resource cannot stall a run for minutes, and
(for the *connection* cases, where many clients may retry against one
daemon at once) jitter so the retries do not synchronize into thundering
herds.  :class:`BackoffPolicy` is that schedule as a value object;
:func:`retry_call` is the standard drive loop around it.

The supervisor's historical formula was
``min(base * 2**(attempt-1), cap)`` with no jitter; that is exactly
``BackoffPolicy(base, cap).delay(attempt)``, and a regression test pins
the equivalence so extracting the policy cannot have changed scheduling
behavior.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class BackoffPolicy:
    """A capped-exponential delay schedule.

    The ``n``-th retry (1-based) waits ``min(base * multiplier**(n-1),
    cap)`` seconds; with ``jitter > 0`` the delay is then scaled by a
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` (clamped at
    zero), which de-synchronizes concurrent retriers without changing
    the expected schedule.
    """

    base: float = 0.05
    cap: float = 2.0
    multiplier: float = 2.0
    #: Relative jitter fraction in ``[0, 1]``; ``0`` is deterministic.
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0 or self.cap < 0:
            raise ValueError("backoff base/cap must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delay(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        delay = min(self.base * self.multiplier ** (attempt - 1), self.cap)
        if self.jitter:
            scale = 1.0 + (rng or random).uniform(-self.jitter, self.jitter)
            delay = max(0.0, delay * scale)
        return delay

    def delays(
        self, attempts: int, rng: Optional[random.Random] = None
    ) -> Iterator[float]:
        """The first ``attempts`` delays of the schedule."""
        for attempt in range(1, attempts + 1):
            yield self.delay(attempt, rng=rng)


class RetriesExhausted(Exception):
    """Every attempt of a :func:`retry_call` failed.

    ``last`` carries the exception of the final attempt so callers can
    report the real cause, not just "gave up".
    """

    def __init__(self, attempts: int, last: BaseException):
        super().__init__(
            f"gave up after {attempts} attempt(s): {last!r}"
        )
        self.attempts = attempts
        self.last = last


def retry_call(
    fn: Callable[[], T],
    attempts: int,
    policy: BackoffPolicy,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` up to ``attempts`` times with backoff between tries.

    Only exceptions in ``retry_on`` are retried -- anything else
    propagates immediately (a protocol violation is not transient the
    way a connection refusal is).  When the last attempt also fails, a
    :class:`RetriesExhausted` wrapping the final exception is raised.
    ``sleep`` and ``rng`` are injectable for deterministic tests.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt < attempts:
                sleep(policy.delay(attempt, rng=rng))
    assert last is not None
    raise RetriesExhausted(attempts, last)
