"""Linearizability checking via branching-bisimulation quotients.

The paper's first method (Fig. 1(a), Theorem 5.3): an object system is
linearizable w.r.t. its linearizable specification iff the quotient of
the object under branching bisimilarity trace-refines the quotient of
the specification.  The quotients are orders of magnitude smaller, so
the PSPACE-complete refinement check runs on tiny systems -- and no
linearization points are ever identified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Optional, Union

from ..core import AnyLTS, branching_partition, quotient_lts, trace_refines
from ..lang import ClientConfig, ObjectProgram, SpecObject, explore, spec_lts
from ..lang.checkpoint import Checkpoint, CheckpointSink
from ..lang.client import Workload
from ..util.budget import BudgetExhausted, Exhaustion, RunBudget, verdict_of
from ..util.metrics import Stats, stage

if TYPE_CHECKING:  # pragma: no cover
    from .reachability import ReachabilityResult


@dataclass
class LinearizabilityResult:
    """Outcome of the Theorem 5.3 pipeline.

    ``counterexample`` is a history (sequence of call/ret action
    labels) the implementation can produce but the specification
    cannot -- e.g. the HM-list double remove.

    ``linearizable`` is three-valued: ``True`` / ``False`` when the
    pipeline completed, ``None`` when a run budget was exhausted first
    -- in which case ``exhaustion`` names the phase, the limit hit and
    the progress made (``verdict`` renders the three cases as
    ``TRUE`` / ``FALSE`` / ``UNKNOWN``).
    """

    object_name: str
    linearizable: Optional[bool]
    counterexample: Optional[List[Hashable]]
    impl_states: int
    impl_quotient_states: int
    spec_states: int
    spec_quotient_states: int
    num_threads: int
    ops_per_thread: int
    explore_seconds: float
    quotient_seconds: float
    refinement_seconds: float
    #: The metrics sink the pipeline recorded into (None when disabled).
    stats: Optional[Stats] = None
    #: Why the pipeline stopped early (None when it completed).
    exhaustion: Optional[Exhaustion] = None

    @property
    def verdict(self) -> str:
        """``TRUE`` / ``FALSE`` / ``UNKNOWN``."""
        return verdict_of(self.linearizable)

    @property
    def reduction_factor(self) -> float:
        """How much smaller the quotient is than the object system."""
        if self.impl_quotient_states == 0:
            return float("inf")
        return self.impl_states / self.impl_quotient_states

    @property
    def total_seconds(self) -> float:
        return self.explore_seconds + self.quotient_seconds + self.refinement_seconds

    def render_counterexample(self) -> str:
        if self.counterexample is None:
            return "<linearizable: no counterexample>"
        lines = ["<initial state>"]
        for label in self.counterexample:
            lines.append(f'  "{label}"')
        lines.append("  -- specification cannot match the last action --")
        return "\n".join(lines)


def check_linearizability(
    program: ObjectProgram,
    spec: SpecObject,
    num_threads: int = 2,
    ops_per_thread: int = 2,
    workload: Optional[Workload] = None,
    max_states: Optional[int] = None,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    spec_checkpoint: Optional[CheckpointSink] = None,
    spec_resume: Optional[Checkpoint] = None,
    on_the_fly: bool = False,
    impl_system: Optional[AnyLTS] = None,
) -> Union[LinearizabilityResult, "ReachabilityResult"]:
    """Run the full Theorem 5.3 pipeline for one object.

    Generates the object system and the specification system under the
    same most-general client, quotients both under branching
    bisimilarity, and checks trace refinement between the quotients.
    Each refinement first compresses silent structure with
    :func:`repro.core.reduce.reduce_lts`; the partitions it yields are
    identical, only faster to compute.

    With a :class:`~repro.util.metrics.Stats` sink the pipeline records
    ``explore`` / ``spec`` / ``quotient`` (with nested ``reduce`` /
    ``refinement``) / ``check`` stages plus state, transition and split
    counters; the sink is attached to the result as ``result.stats``.

    With a :class:`~repro.util.budget.RunBudget` the pipeline is
    governed end to end: exhaustion in any phase yields a result with
    ``linearizable=None`` (verdict ``UNKNOWN``) carrying the exhaustion
    record -- it never raises.

    ``spec_checkpoint`` / ``spec_resume`` checkpoint the
    specification-LTS generation so an interrupted ``lin`` run does not
    regenerate it from scratch.

    ``on_the_fly=True`` (with no ``impl_system``) delegates to the one
    on-the-fly lane, the streaming reachability search
    (:func:`~repro.verify.reachability.check_linearizability_reachability`
    with ``on_the_fly=True``), and returns its
    :class:`~repro.verify.reachability.ReachabilityResult`: the same
    verdict, decided without building the specification LTS, after
    expanding only the states the product search touched.

    ``impl_system``, when given, is a pre-explored object system to
    check instead of exploring here (the verdict job,
    :func:`repro.verify.job.run_job`, explores once and shares it);
    ``on_the_fly`` is ignored with a shared system.
    """
    if on_the_fly and impl_system is None:
        from .reachability import check_linearizability_reachability

        return check_linearizability_reachability(
            program, spec, num_threads, ops_per_thread, workload=workload,
            max_states=max_states, stats=stats, budget=budget,
            on_the_fly=True,
        )
    if workload is None:
        raise ValueError("a workload (method/argument universe) is required")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    impl_states = impl_quotient_states = 0
    spec_states = spec_quotient_states = 0
    t0 = t1 = t2 = t3 = time.perf_counter()
    try:
        if impl_system is not None:
            impl = impl_system
        else:
            impl = explore(program, config, stats=stats, budget=budget)
        impl_states = impl.num_states
        spec_system = spec_lts(
            spec, num_threads, ops_per_thread, workload,
            max_states=max_states, stats=stats, budget=budget,
            checkpoint=spec_checkpoint, resume=spec_resume,
        )
        spec_states = spec_system.num_states
        t1 = time.perf_counter()
        with stage(stats, "quotient"):
            impl_quotient = quotient_lts(
                impl,
                branching_partition(impl, stats=stats, reduce=True,
                                    budget=budget),
            )
            impl_quotient_states = impl_quotient.lts.num_states
            spec_quotient = quotient_lts(
                spec_system,
                branching_partition(spec_system, stats=stats, reduce=True,
                                    budget=budget),
            )
            spec_quotient_states = spec_quotient.lts.num_states
            if stats is not None:
                stats.count("impl_states", impl_quotient.lts.num_states)
                stats.count("spec_states", spec_quotient.lts.num_states)
        t2 = time.perf_counter()
        refinement = trace_refines(
            impl_quotient.lts, spec_quotient.lts, stats=stats, budget=budget
        )
        t3 = time.perf_counter()
    except BudgetExhausted as exc:
        now = time.perf_counter()
        return LinearizabilityResult(
            object_name=program.name,
            linearizable=None,
            counterexample=None,
            impl_states=impl_states,
            impl_quotient_states=impl_quotient_states,
            spec_states=spec_states,
            spec_quotient_states=spec_quotient_states,
            num_threads=num_threads,
            ops_per_thread=ops_per_thread,
            explore_seconds=(t1 - t0) if t1 > t0 else now - t0,
            quotient_seconds=(t2 - t1) if t2 > t1 else 0.0,
            refinement_seconds=0.0,
            stats=stats,
            exhaustion=exc.exhaustion,
        )
    return LinearizabilityResult(
        object_name=program.name,
        linearizable=refinement.holds,
        counterexample=refinement.counterexample,
        impl_states=impl.num_states,
        impl_quotient_states=impl_quotient.lts.num_states,
        spec_states=spec_system.num_states,
        spec_quotient_states=spec_quotient.lts.num_states,
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        explore_seconds=t1 - t0,
        quotient_seconds=t2 - t1,
        refinement_seconds=t3 - t2,
        stats=stats,
    )
