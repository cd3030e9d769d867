"""Run-budget governance: deadlines, caps, cancellation, three-valued verdicts.

The paper's pipelines are exactly the workloads where state-space
explosion kills runs mid-flight (the DSN 2018 experiments needed a
48-core / 192 GB server; this interpreter-speed repro hits the wall far
sooner).  Bounded analyses that still return a meaningful verdict are
standard practice in this literature, so instead of ad-hoc exceptions
every long-running loop in the package checks a single
:class:`RunBudget` at bounded intervals and raises one structured
:class:`BudgetExhausted` taxonomy when a limit is hit:

* a **wall-clock deadline** (seconds from the budget's start),
* a **peak-RSS cap** (KiB, sampled with a stride so the probe is cheap),
* a **cooperative cancellation token**, optionally wired to ``SIGINT``
  so a Ctrl-C surfaces as a clean exhaustion at the next check point
  instead of a traceback from a random stack frame.

:class:`BudgetExhausted` carries an :class:`Exhaustion` record naming
the *reason* (which limit), the *phase* (which pipeline stage) and a
*progress snapshot* (states explored, sweeps completed, ...), so the
verification pipelines can turn it into a three-valued verdict:

    ``TRUE`` / ``FALSE``   the analysis completed and decided,
    ``UNKNOWN``            a budget ran out first; the exhaustion record
                           says how far the run got.

The CLI maps verdicts to exit codes (:data:`EXIT_TRUE` = 0,
:data:`EXIT_FALSE` = 1, :data:`EXIT_UNKNOWN` = 2, and
:data:`EXIT_INTERRUPTED` = 130 for SIGINT).  See ``docs/ROBUSTNESS.md``.

Budget checks are pay-for-what-you-use like the metrics layer: every
loop accepts ``budget=None`` and skips the call entirely in that case.
:meth:`RunBudget.check` reads the clock on every call when a deadline
is set, so the first check after the deadline passes raises, and
strides only the costlier RSS probe.  The hottest loops (an
exploration's safe point, the trace-inclusion queue, the reachability
frontier) also skip it while :attr:`RunBudget.armed` is false: no
deadline, no RSS cap and the token not set, so no check could raise.
"""

from __future__ import annotations

import signal
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import peak_rss_kb

#: The RSS probe runs on the first check and then on every
#: ``RSS_PROBE_STRIDE``-th one.
RSS_PROBE_STRIDE = 32

# ----------------------------------------------------------------------
# three-valued verdicts and exit codes
# ----------------------------------------------------------------------

#: The three verdict values every governed pipeline can return.
TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"

#: CLI exit codes for the three verdicts, plus SIGINT.  Exit 3 is the
#: loud-failure code of ``lin --method both``: the two verdict engines
#: decided and disagreed, which is never a property of the input --
#: it is a bug in one of the engines.
EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_DISAGREEMENT = 3
EXIT_INTERRUPTED = 130


def verdict_of(flag: Optional[bool]) -> str:
    """Map a three-valued boolean (``None`` = undecided) to a verdict."""
    if flag is None:
        return UNKNOWN
    return TRUE if flag else FALSE


def combined_verdict(first: str, second: str) -> Tuple[str, bool]:
    """Combine two engines' verdicts on the same instance.

    Returns ``(verdict, disagree)``: a decided verdict wins over
    ``UNKNOWN`` (a budget exhaustion in one engine is not a
    disagreement), and two *decided but different* verdicts flag
    ``disagree`` -- the ``lin --method both`` failure mode.
    """
    if first == UNKNOWN:
        return second, False
    if second == UNKNOWN:
        return first, False
    return first, first != second


def exit_code_for(verdict: str) -> int:
    """The CLI exit code of a verdict string."""
    return {TRUE: EXIT_TRUE, FALSE: EXIT_FALSE, UNKNOWN: EXIT_UNKNOWN}[verdict]


# ----------------------------------------------------------------------
# the exhaustion taxonomy
# ----------------------------------------------------------------------

#: ``Exhaustion.reason`` values (the closed taxonomy).
REASON_DEADLINE = "deadline"
#: The exploration state cap (``ClientConfig.max_states``, raised as
#: :class:`repro.lang.client.StateExplosion`).
REASON_STATES = "states"
REASON_RSS = "rss"
REASON_INTERRUPTED = "interrupted"

ALL_REASONS = (
    REASON_DEADLINE,
    REASON_STATES,
    REASON_RSS,
    REASON_INTERRUPTED,
)

#: Interleaved phase reported by the fused on-the-fly search, where
#: exploration and checking alternate inside one loop and exhaustion
#: cannot be pinned on either stage alone.  The streaming explorer still
#: reports plain ``"explore"`` from its own safe points; this name
#: covers the *consumer* side of the fused loop (the product search
#: driving the stream).
PHASE_EXPLORE_REACHABILITY = "explore+reachability"


@dataclass
class Exhaustion:
    """Why, where and how far: the structured record behind ``UNKNOWN``.

    Attributes
    ----------
    reason:
        Which limit was hit (one of :data:`ALL_REASONS`).
    phase:
        The pipeline stage that was running (``"explore"``, ``"spec"``,
        ``"reduce"``, ``"refinement"``, ``"check"``, ``"divergence"``,
        ``"reachability"``; the fused on-the-fly search reports the
        interleaved phase :data:`PHASE_EXPLORE_REACHABILITY` because
        exploration and checking alternate inside one loop there).
    limit:
        Human-readable rendering of the limit (``"deadline=2.00s"``).
    progress:
        Loop counters at the moment of exhaustion (states, transitions,
        sweeps, visited pairs, ... -- whatever the loop reported).
    """

    reason: str
    phase: str
    limit: str
    progress: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        detail = "  ".join(f"{k}={v}" for k, v in sorted(self.progress.items()))
        text = f"budget exhausted in phase '{self.phase}': {self.limit}"
        return f"{text}  [{detail}]" if detail else text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.exhaustion/v1",
            "reason": self.reason,
            "phase": self.phase,
            "limit": self.limit,
            "progress": dict(self.progress),
        }


class BudgetExhausted(Exception):
    """A :class:`RunBudget` limit was hit (the single structured taxonomy).

    Every bounded loop in the package raises this (or the back-compat
    subclass :class:`repro.lang.client.StateExplosion`) -- never a bare
    ``RuntimeError`` -- so callers can catch one exception type and read
    ``exc.exhaustion`` for the reason / phase / progress snapshot.
    """

    def __init__(self, exhaustion: Exhaustion):
        super().__init__(exhaustion.render())
        self.exhaustion = exhaustion

    @property
    def reason(self) -> str:
        return self.exhaustion.reason

    @property
    def phase(self) -> str:
        return self.exhaustion.phase

    @property
    def progress(self) -> Dict[str, int]:
        return self.exhaustion.progress


# ----------------------------------------------------------------------
# cooperative cancellation
# ----------------------------------------------------------------------

class CancellationToken:
    """A latch the budget polls; setting it cancels at the next check.

    Setting it also arms every :class:`RunBudget` that holds it
    (:attr:`RunBudget.armed`), from any thread: the flag is written
    first, so a loop that sees the gate open sees the flag too.  The
    budgets are held weakly, so a token that outlives a run does not
    keep its budget alive.
    """

    __slots__ = ("_flag", "_budgets")

    def __init__(self) -> None:
        self._flag = False
        self._budgets: List["weakref.ref[RunBudget]"] = []

    def set(self) -> None:
        self._flag = True
        for ref in self._budgets:
            budget = ref()
            if budget is not None:
                budget.armed = True

    def clear(self) -> None:
        self._flag = False
        for ref in self._budgets:
            budget = ref()
            if budget is not None:
                budget.armed = budget._limited()

    def is_set(self) -> bool:
        return self._flag

    def _attach(self, budget: "RunBudget") -> None:
        """Arm ``budget`` whenever this token is set."""
        self._budgets.append(weakref.ref(budget))
        if self._flag:
            budget.armed = True


# ----------------------------------------------------------------------
# child-process budget propagation
# ----------------------------------------------------------------------

@dataclass
class ChildAllowance:
    """A budget slice serializable across a process boundary.

    Produced by :meth:`RunBudget.child_allowance` in the parent and
    turned back into a fresh :class:`RunBudget` by :meth:`to_budget` in
    the child (its deadline clock starts when the child constructs it).
    Plain data, so it ships inside a pickled work-unit message.
    """

    deadline_seconds: Optional[float] = None
    max_rss_kb: Optional[int] = None

    def to_budget(self) -> Optional["RunBudget"]:
        """A fresh child-side budget, or ``None`` when nothing is capped."""
        if self.deadline_seconds is None and self.max_rss_kb is None:
            return None
        return RunBudget(
            deadline_seconds=self.deadline_seconds,
            max_rss_kb=self.max_rss_kb,
        )


def child_allowance(
    budget: Optional["RunBudget"], deadline_cap: Optional[float] = None
) -> ChildAllowance:
    """:meth:`RunBudget.child_allowance` that tolerates ``budget=None``."""
    if budget is None:
        return ChildAllowance(deadline_seconds=deadline_cap, max_rss_kb=None)
    return budget.child_allowance(deadline_cap)


# ----------------------------------------------------------------------
# the budget itself
# ----------------------------------------------------------------------

class RunBudget:
    """A bundle of limits checked cooperatively by every long loop.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock allowance measured from construction (or the last
        :meth:`restart`).  ``None`` = no deadline.
    max_rss_kb:
        Peak-RSS cap in KiB (compared against
        :func:`repro.util.metrics.peak_rss_kb`).  ``None`` = uncapped.
    token:
        A :class:`CancellationToken`; when set, the next check raises
        with reason ``"interrupted"``.  :meth:`install_sigint` wires it
        to Ctrl-C for the duration of a ``with`` block.

    The token and the clock are read on every check, the RSS probe on
    the first check and then every :data:`RSS_PROBE_STRIDE`-th one.

    :attr:`armed` is the gate a hot loop reads before it builds a
    progress snapshot and calls :meth:`check`: true while a deadline or
    an RSS cap is set or the token is set, the only times a check can
    raise.

    The state cap of an exploration is ``ClientConfig.max_states``,
    enforced by the explorer itself.
    """

    __slots__ = (
        "deadline_seconds",
        "max_rss_kb",
        "token",
        "armed",
        "_started",
        "_calls",
        "__weakref__",
    )

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_rss_kb: Optional[int] = None,
        token: Optional[CancellationToken] = None,
    ) -> None:
        self.deadline_seconds = deadline_seconds
        self.max_rss_kb = max_rss_kb
        self.token = token
        self._started = time.monotonic()
        self._calls = 0
        #: Whether :meth:`check` can raise (see the class docstring).
        self.armed = self._limited()
        if token is not None:
            token._attach(self)

    def _limited(self) -> bool:
        """Whether a deadline or an RSS cap is set."""
        return self.deadline_seconds is not None or self.max_rss_kb is not None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def restart(self) -> "RunBudget":
        """Reset the deadline clock (used between degradation attempts)."""
        self._started = time.monotonic()
        self._calls = 0
        return self

    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline is set)."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - self.elapsed_seconds()

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def exhaust(self, reason: str, phase: str, limit: str, **progress: int) -> None:
        """Raise :class:`BudgetExhausted` with a progress snapshot."""
        snapshot = {k: v for k, v in progress.items() if v is not None}
        raise BudgetExhausted(Exhaustion(
            reason=reason, phase=phase, limit=limit, progress=snapshot,
        ))

    def check(self, phase: str, **progress: int) -> None:
        """Raise :class:`BudgetExhausted` if any limit has been hit.

        The keyword counters (``states=...``, ``transitions=...``,
        ``frontier=...``) are the loop's progress; they only fill the
        exhaustion's snapshot.
        """
        token = self.token
        if token is not None and token.is_set():
            self.exhaust(
                REASON_INTERRUPTED, phase, "cancelled (SIGINT)", **progress,
            )
        if self.deadline_seconds is not None:
            elapsed = time.monotonic() - self._started
            if elapsed > self.deadline_seconds:
                self.exhaust(
                    REASON_DEADLINE, phase,
                    f"deadline={self.deadline_seconds:.2f}s "
                    f"(elapsed {elapsed:.2f}s)",
                    **progress,
                )
        if self.max_rss_kb is not None:
            calls = self._calls
            self._calls = calls + 1
            if calls % RSS_PROBE_STRIDE:
                return
            rss = peak_rss_kb()
            if rss > self.max_rss_kb:
                self.exhaust(
                    REASON_RSS, phase,
                    f"max_rss_kb={self.max_rss_kb} (peak {rss})",
                    **progress,
                )

    # ------------------------------------------------------------------
    # child-process propagation
    # ------------------------------------------------------------------
    def child_allowance(
        self, deadline_cap: Optional[float] = None
    ) -> "ChildAllowance":
        """The budget slice to ship to a child process (or work shard).

        The wall-clock allowance is what *remains* of this budget's
        deadline, optionally capped by ``deadline_cap`` (a per-shard
        deadline); the RSS cap is inherited as-is (children are separate
        processes, so each gets the full cap).  A negative remaining
        deadline is clamped to ``0.0`` so the child
        exhausts immediately instead of running unbounded.
        """
        remaining = self.remaining_seconds()
        if remaining is not None and remaining < 0:
            remaining = 0.0
        if deadline_cap is not None:
            remaining = (
                deadline_cap if remaining is None
                else min(remaining, deadline_cap)
            )
        return ChildAllowance(
            deadline_seconds=remaining, max_rss_kb=self.max_rss_kb
        )

    # ------------------------------------------------------------------
    # SIGINT wiring
    # ------------------------------------------------------------------
    @contextmanager
    def install_sigint(self) -> Iterator[CancellationToken]:
        """Route SIGINT into the cancellation token for a ``with`` block.

        The first Ctrl-C sets the token (a graceful stop at the next
        budget check); a second Ctrl-C raises ``KeyboardInterrupt``
        immediately.  Outside the main thread (or where ``signal`` is
        unavailable) the token is yielded without any handler change.
        """
        token = self.token
        if token is None:
            token = self.token = CancellationToken()
            token._attach(self)
        if threading.current_thread() is not threading.main_thread():
            yield token
            return
        previous = signal.getsignal(signal.SIGINT)

        def handler(signum, frame):  # pragma: no cover - signal delivery
            if token.is_set():
                raise KeyboardInterrupt
            token.set()

        signal.signal(signal.SIGINT, handler)
        try:
            yield token
        finally:
            signal.signal(signal.SIGINT, previous)
