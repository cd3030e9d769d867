"""Lock-freedom checking via divergence-sensitive branching bisimulation.

The paper's second method (Fig. 1(b)) comes in two flavours:

* **Theorem 5.9 (automatic)** -- compare the object system against its
  own branching-bisimulation quotient with the divergence-sensitive
  relation.  The quotient never has silent cycles (Lemma 5.7), so a
  mismatch exposes a divergence of the original system, i.e. a
  lock-freedom violation; a diagnostic lasso (Fig. 9) is extracted.

* **Theorem 5.8 (abstract object)** -- establish that the concrete
  object is divergence-sensitive branching bisimilar to a hand-written
  abstract program of a few atomic blocks, then check lock-freedom on
  the (much smaller) abstract program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core import (
    Lasso,
    branching_partition,
    compare_branching,
    find_divergence_lasso,
    quotient_lts,
    tau_cycle_states,
)
from ..lang import ClientConfig, ObjectProgram, explore
from ..lang.client import Workload
from ..util.budget import BudgetExhausted, Exhaustion, RunBudget, verdict_of
from ..util.metrics import Stats, stage


@dataclass
class LockFreedomResult:
    """Outcome of an automatic Theorem 5.9 check.

    ``lock_free`` is three-valued: ``None`` means a run budget was
    exhausted before the check decided (see ``exhaustion``/``verdict``).
    """

    object_name: str
    lock_free: Optional[bool]
    impl_states: int
    quotient_states: int
    num_threads: int
    ops_per_thread: int
    diagnostic: Optional[Lasso]
    seconds: float
    #: The metrics sink the pipeline recorded into (None when disabled).
    stats: Optional[Stats] = None
    #: Why the pipeline stopped early (None when it completed).
    exhaustion: Optional[Exhaustion] = None

    @property
    def verdict(self) -> str:
        """``TRUE`` / ``FALSE`` / ``UNKNOWN``."""
        return verdict_of(self.lock_free)

    def render_diagnostic(self) -> str:
        if self.diagnostic is None:
            return "<lock-free: no divergence>"
        return self.diagnostic.render()


def check_lock_freedom_auto(
    program: ObjectProgram,
    num_threads: int = 2,
    ops_per_thread: int = 2,
    workload: Optional[Workload] = None,
    max_states: Optional[int] = None,
    method: str = "union",
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    impl_system=None,
) -> LockFreedomResult:
    """Theorem 5.9: fully automatic lock-freedom check.

    ``Delta`` is lock-free iff ``Delta ~div Delta/~``; on failure a
    divergence lasso of the original system is attached as diagnostic.

    ``method`` selects how the divergence-sensitive comparison is
    decided:

    * ``"union"`` -- the literal Theorem 5.9 check: compute the
      div-sensitive branching partition of the disjoint union of the
      system and its quotient and compare the initial states.
    * ``"tau-cycle"`` -- the equivalent direct check: by Lemma 5.6 all
      states of a silent cycle are branching bisimilar (so every silent
      cycle is a partition-relative divergence) and by Lemma 5.7 the
      quotient has no silent cycles; hence ``Delta ~div Delta/~`` iff
      ``Delta`` has no reachable silent cycle.  One refinement pass
      instead of two -- used for the largest bench instances.  The
      test-suite checks both methods agree on every benchmark.

    Each refinement first compresses silent structure
    (:func:`repro.core.reduce.reduce_lts`); that changes timings only,
    never verdicts.

    With a :class:`~repro.util.budget.RunBudget` the check is governed
    end to end: exhaustion yields ``lock_free=None`` (``UNKNOWN``) with
    the exhaustion record attached -- it never raises.

    ``impl_system``, when given, is a pre-explored object system to
    check instead of exploring here (the verdict job,
    :func:`repro.verify.job.run_job`, explores once -- under
    checkpoint/resume in the daemon -- and shares the frozen system);
    it must come from the same program and bounds.
    """
    if workload is None:
        raise ValueError("a workload (method/argument universe) is required")
    if method not in ("union", "tau-cycle"):
        raise ValueError(f"unknown method {method!r}")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    impl_states = quotient_states = 0
    t0 = time.perf_counter()
    try:
        if impl_system is not None:
            impl = impl_system
        else:
            impl = explore(program, config, stats=stats, budget=budget)
        impl_states = impl.num_states
        with stage(stats, "quotient"):
            quotient = quotient_lts(
                impl,
                branching_partition(impl, stats=stats, reduce=True,
                                    budget=budget),
            )
            quotient_states = quotient.lts.num_states
            if stats is not None:
                stats.count("impl_states", quotient.lts.num_states)
        with stage(stats, "check"):
            if method == "union":
                comparison = compare_branching(
                    impl, quotient.lts, divergence=True, stats=stats,
                    reduce=True, budget=budget,
                )
                lock_free = comparison.equivalent
            else:
                lock_free = not tau_cycle_states(impl, budget=budget)
        diagnostic = (
            None if lock_free else find_divergence_lasso(impl, budget=budget)
        )
    except BudgetExhausted as exc:
        return LockFreedomResult(
            object_name=program.name,
            lock_free=None,
            impl_states=impl_states,
            quotient_states=quotient_states,
            num_threads=num_threads,
            ops_per_thread=ops_per_thread,
            diagnostic=None,
            seconds=time.perf_counter() - t0,
            stats=stats,
            exhaustion=exc.exhaustion,
        )
    seconds = time.perf_counter() - t0
    return LockFreedomResult(
        object_name=program.name,
        lock_free=lock_free,
        impl_states=impl.num_states,
        quotient_states=quotient.lts.num_states,
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        diagnostic=diagnostic,
        seconds=seconds,
        stats=stats,
    )


@dataclass
class AbstractLockFreedomResult:
    """Outcome of a Theorem 5.8 check via an abstract object.

    ``lock_free`` is ``None`` both when the bisimulation against the
    abstract object failed (no verdict transfers) and when a run budget
    was exhausted (``exhaustion`` is set in that case); either way the
    rendered verdict is ``UNKNOWN``.
    """

    object_name: str
    abstract_name: str
    div_bisimilar: bool              # concrete ~div abstract
    abstract_lock_free: Optional[bool]   # divergence check on the abstract
    concrete_states: int
    abstract_states: int
    num_threads: int
    ops_per_thread: int
    seconds: float
    #: The metrics sink the pipeline recorded into (None when disabled).
    stats: Optional[Stats] = None
    #: Why the pipeline stopped early (None when it completed).
    exhaustion: Optional[Exhaustion] = None

    @property
    def lock_free(self) -> Optional[bool]:
        """The transferred verdict (``None`` if the bisimulation failed)."""
        if not self.div_bisimilar:
            return None
        return self.abstract_lock_free

    @property
    def verdict(self) -> str:
        """``TRUE`` / ``FALSE`` / ``UNKNOWN``."""
        return verdict_of(self.lock_free)


def check_lock_freedom_abstract(
    program: ObjectProgram,
    abstract: ObjectProgram,
    num_threads: int = 2,
    ops_per_thread: int = 2,
    workload: Optional[Workload] = None,
    max_states: Optional[int] = None,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
) -> AbstractLockFreedomResult:
    """Theorem 5.8: prove ``concrete ~div abstract``, check the abstract.

    Lock-freedom of the abstract program is itself decided by silent-
    cycle detection (equivalently, Theorem 5.9 on the small system).
    """
    if workload is None:
        raise ValueError("a workload (method/argument universe) is required")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    concrete_states = abstract_states = 0
    t0 = time.perf_counter()
    try:
        concrete = explore(program, config, stats=stats, budget=budget)
        concrete_states = concrete.num_states
        abstract_system = explore(abstract, config, stats=stats, budget=budget)
        abstract_states = abstract_system.num_states
        with stage(stats, "check"):
            comparison = compare_branching(
                concrete, abstract_system, divergence=True, stats=stats,
                reduce=True, budget=budget,
            )
            abstract_lock_free: Optional[bool] = None
            if comparison.equivalent:
                abstract_lock_free = not tau_cycle_states(
                    abstract_system, budget=budget
                )
    except BudgetExhausted as exc:
        return AbstractLockFreedomResult(
            object_name=program.name,
            abstract_name=abstract.name,
            div_bisimilar=False,
            abstract_lock_free=None,
            concrete_states=concrete_states,
            abstract_states=abstract_states,
            num_threads=num_threads,
            ops_per_thread=ops_per_thread,
            seconds=time.perf_counter() - t0,
            stats=stats,
            exhaustion=exc.exhaustion,
        )
    seconds = time.perf_counter() - t0
    return AbstractLockFreedomResult(
        object_name=program.name,
        abstract_name=abstract.name,
        div_bisimilar=comparison.equivalent,
        abstract_lock_free=abstract_lock_free,
        concrete_states=concrete.num_states,
        abstract_states=abstract_system.num_states,
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        seconds=seconds,
        stats=stats,
    )
