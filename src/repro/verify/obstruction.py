"""Obstruction-freedom checking (a progress-property extension).

The paper's framework covers "all progress properties expressible in
the next-free fragment of CTL*"; alongside lock-freedom (Theorems
5.8/5.9) the other standard non-blocking guarantees are wait-freedom
(which coincides with lock-freedom under the bounded most-general
client, see ``repro.ltl.progress``) and **obstruction-freedom**: every
operation completes in a bounded number of steps *when run in
isolation*.

For a bounded object system a violation is a silent cycle all of whose
steps belong to one thread -- the thread spins even with every other
thread paused.  Thread ownership of internal steps is recovered from
the transition annotations (``"t<k>.<line>"``), which every shared-
memory instruction of the benchmark models carries.  The cycle search
and its lasso are lock-freedom's (:mod:`repro.core.divergence`),
restricted to one thread's silent steps.

Examples: the HW queue's dequeue spins on an empty queue entirely on
its own (not even obstruction-free), while the Treiber stack's retry
loops need interference to keep failing (obstruction-free -- and its
CAS loops make it lock-free too).  The revised Treiber+HP stack's
hazard-pointer wait is also a solo spin: the scanning thread re-reads
an unchanging slot forever.

Only meaningful for non-blocking models: the DSL's locks use
blocking-enabledness semantics, so a lock-based object never has solo
cycles (a blocked thread simply has no moves).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..core.divergence import Lasso, find_silent_lasso, silent_cycle_states
from ..core.lts import TAU_ID, AnyLTS
from ..lang import ClientConfig, ObjectProgram, explore
from ..lang.client import Workload
from ..util.budget import BudgetExhausted, Exhaustion, RunBudget, verdict_of
from ..util.metrics import Stats, stage


def transition_thread(lts: AnyLTS, aid: int, annotation) -> Optional[int]:
    """The 1-based thread id owning a transition, if recoverable."""
    if aid != TAU_ID:
        label = lts.action_labels[aid]
        if isinstance(label, tuple) and len(label) > 1 and isinstance(label[1], int):
            return label[1]
        return None
    if isinstance(annotation, str) and annotation.startswith("t"):
        head = annotation.split(".", 1)[0]
        try:
            return int(head[1:])
        except ValueError:
            return None
    return None


def _thread_steps(lts: AnyLTS, tid: int) -> Callable[[Any], bool]:
    """Accepts the annotation of a silent step of thread ``tid``."""
    return lambda annotation: transition_thread(lts, TAU_ID, annotation) == tid


def solo_tau_cycle_states(lts: AnyLTS, tid: int) -> List[int]:
    """States on a silent cycle consisting solely of thread ``tid`` steps."""
    return silent_cycle_states(lts, _thread_steps(lts, tid))


@dataclass
class ObstructionFreedomResult:
    """Outcome of an obstruction-freedom check.

    ``obstruction_free`` is three-valued: ``None`` means a run budget
    was exhausted before the check decided (see ``exhaustion``).
    """

    object_name: str
    obstruction_free: Optional[bool]
    impl_states: int
    num_threads: int
    ops_per_thread: object
    #: Thread whose solo spin violates the property (1-based), if any.
    spinning_thread: Optional[int]
    diagnostic: Optional[Lasso]
    seconds: float
    #: The metrics sink the pipeline recorded into (None when disabled).
    stats: Optional[Stats] = None
    #: Why the pipeline stopped early (None when it completed).
    exhaustion: Optional[Exhaustion] = None

    @property
    def verdict(self) -> str:
        """``TRUE`` / ``FALSE`` / ``UNKNOWN``."""
        return verdict_of(self.obstruction_free)

    def render_diagnostic(self) -> str:
        if self.diagnostic is None:
            return "<obstruction-free: no solo divergence>"
        return (
            f"thread t{self.spinning_thread} spins in isolation:\n"
            + self.diagnostic.render()
        )


def check_obstruction_freedom(
    program: ObjectProgram,
    num_threads: int = 2,
    ops_per_thread: int = 2,
    workload: Optional[Workload] = None,
    max_states: Optional[int] = None,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    impl_system: Optional[AnyLTS] = None,
) -> ObstructionFreedomResult:
    """Check obstruction-freedom of a (non-blocking) object program.

    With a :class:`~repro.util.budget.RunBudget` the check is governed
    end to end: exhaustion yields ``obstruction_free=None``
    (``UNKNOWN``) with the exhaustion record attached -- never raises.

    ``impl_system``, when given, is a pre-explored object system to
    check instead of exploring here (the verdict job,
    :func:`repro.verify.job.run_job`, explores once and shares it); it
    must come from the same program and bounds.
    """
    if workload is None:
        raise ValueError("a workload (method/argument universe) is required")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    impl_states = 0
    start = time.perf_counter()
    spinning_thread: Optional[int] = None
    diagnostic: Optional[Lasso] = None
    try:
        if impl_system is not None:
            impl = impl_system
        else:
            impl = explore(program, config, stats=stats, budget=budget)
        impl_states = impl.num_states
        with stage(stats, "check"):
            for tid in range(1, num_threads + 1):
                if budget is not None:
                    budget.check("check", states=impl_states, thread=tid)
                diagnostic = find_silent_lasso(
                    impl, _thread_steps(impl, tid), budget
                )
                if diagnostic is not None:
                    spinning_thread = tid
                    break
    except BudgetExhausted as exc:
        return ObstructionFreedomResult(
            object_name=program.name,
            obstruction_free=None,
            impl_states=impl_states,
            num_threads=num_threads,
            ops_per_thread=ops_per_thread,
            spinning_thread=None,
            diagnostic=None,
            seconds=time.perf_counter() - start,
            stats=stats,
            exhaustion=exc.exhaustion,
        )
    return ObstructionFreedomResult(
        object_name=program.name,
        obstruction_free=spinning_thread is None,
        impl_states=impl.num_states,
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        spinning_thread=spinning_thread,
        diagnostic=diagnostic,
        seconds=time.perf_counter() - start,
        stats=stats,
    )
