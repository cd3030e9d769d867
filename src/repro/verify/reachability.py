"""Linearizability via state reachability (the second verdict engine).

Bouajjani, Emmi, Enea and Hamza ("On Reducing Linearizability to State
Reachability") show that for a *fixed* specification, linearizability
of every bounded history is a plain reachability question: compose the
implementation with an instrumented specification monitor and ask
whether a violation state is reachable.  This module is that reduction,
built as a backend fully independent of the paper's quotient pipeline
(:mod:`repro.verify.linearizability`): no partition refinement, no
quotients, no specification LTS -- just the exploration core and one
product search.

The monitor tracks, after each visible prefix, the set of *spec
configurations* ``(abstract_state, pending/linearized statuses)`` that
could justify the history so far:

* on ``call(t, m, args)`` thread ``t`` becomes pending in every
  configuration;
* between visible actions the set is closed under *linearization
  steps* -- any pending operation may atomically apply its sequential
  method (collecting every nondeterministic outcome);
* on ``ret(t, m, v)`` only configurations where ``t`` has linearized
  ``m`` with result ``v`` survive, and ``t`` becomes idle again.

The empty set is the violation state: no sequence of linearization
points explains the observed history, so the history is not
linearizable.  Conversely a non-empty set is a concrete witness
assignment of linearization points, so the verdict is exact -- see
docs/THEORY.md for the soundness argument and why, at equal client
bounds, this engine must agree with the quotient/trace-refinement
engine verdict-for-verdict (the cross-check behind ``lin --method
both`` and the differential fuzz harness).

The product search walks ``(implementation state, monitor set)`` pairs
over the same exploration core -- an explored
:class:`~repro.core.lts.FrozenLTS`, or the
:class:`~repro.lang.StreamingExplorer` on demand -- with the antichain
subsumption of :mod:`repro.core.traces`: a pair
``(s, M)`` is pruned when some visited ``(s, M')`` has ``M' ⊆ M``,
because monitor sets evolve monotonically (``M' ⊆ M`` implies
``post(M') ⊆ post(M)`` for every suffix) and therefore every violation
reachable from ``(s, M)`` is reachable from ``(s, M')`` as well.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..core.lts import TAU_ID, FrozenLTS
from ..lang import ClientConfig, ObjectProgram, SpecObject, StreamingExplorer, explore
from ..lang.client import ExpansionContext, Workload
from ..lang.state import ModelError
from ..util.budget import (
    PHASE_EXPLORE_REACHABILITY,
    BudgetExhausted,
    Exhaustion,
    RunBudget,
    verdict_of,
)
from ..util.metrics import Stats

#: Mutation hooks for the differential harness (see
#: :mod:`repro.testing.differential`).  ``_DROP_MONITOR_TRANSITION``
#: makes the monitor lose every linearization step of threads other
#: than thread 1 (spurious violations on linearizable objects);
#: ``_SKIP_VIOLATION_STATE`` makes the search treat the empty monitor
#: set as a dead end instead of a violation (the engine can never
#: report FALSE).  ``_SKIP_FRONTIER_CHECK`` makes the search over a
#: stream ignore violations whose destination implementation state has
#: not been expanded yet -- exactly the plausible-looking bug of
#: checking product pairs only after their impl state leaves the
#: frontier, which silently turns shallow FALSE verdicts into TRUE.
#: All must stay ``True``/``False`` as below in production; the fuzz
#: harness flips them to prove the cross-engine check catches
#: whole-engine bugs.
_DROP_MONITOR_TRANSITION = False
_SKIP_VIOLATION_STATE = False
_SKIP_FRONTIER_CHECK = False

#: One monitor configuration: ``(abstract_state, statuses)`` where
#: ``statuses`` is a tid-sorted tuple of ``(tid, status)`` entries and
#: idle threads are simply absent.  ``status`` is either
#: ``("pend", method, args)`` -- called, not yet linearized -- or
#: ``("lin", method, value)`` -- linearized, return pending.
Config = Tuple[Hashable, Tuple[Tuple[int, Tuple[Any, ...]], ...]]

#: A monitor state: the set of configurations justifying the history.
MonitorSet = FrozenSet[Config]


def _close(spec: SpecObject, configs: Set[Config]) -> MonitorSet:
    """Close a configuration set under optional linearization steps."""
    seen: Set[Config] = set(configs)
    work: List[Config] = list(configs)
    while work:
        abstract, statuses = work.pop()
        for index, (tid, status) in enumerate(statuses):
            if status[0] != "pend":
                continue
            if _DROP_MONITOR_TRANSITION and tid != 1:
                continue
            _, mname, args = status
            for new_abstract, value in spec.method(mname)(abstract, args):
                entry = (tid, ("lin", mname, value))
                successor = (
                    new_abstract,
                    statuses[:index] + (entry,) + statuses[index + 1:],
                )
                if successor not in seen:
                    seen.add(successor)
                    work.append(successor)
    return frozenset(seen)


def initial_monitor(spec: SpecObject) -> MonitorSet:
    """The monitor state before any visible action (all threads idle)."""
    return _close(spec, {(spec.initial, ())})


def monitor_after_call(
    spec: SpecObject, mset: MonitorSet, tid: int, mname: str,
    args: Tuple[Any, ...],
) -> MonitorSet:
    """Thread ``tid`` invokes ``mname(args)`` in every configuration.

    A configuration where ``tid`` is already busy cannot extend the
    history (the specification's client never double-calls) and dies.
    """
    out: Set[Config] = set()
    for abstract, statuses in mset:
        if any(t == tid for t, _ in statuses):
            continue
        entry = (tid, ("pend", mname, args))
        out.add((abstract, tuple(sorted(statuses + (entry,)))))
    return _close(spec, out)


def monitor_after_return(
    spec: SpecObject, mset: MonitorSet, tid: int, mname: str, value: Any,
) -> MonitorSet:
    """Keep only configurations where ``tid`` linearized ``mname`` with
    result ``value``; ``tid`` becomes idle in the survivors."""
    out: Set[Config] = set()
    for abstract, statuses in mset:
        for index, (t, status) in enumerate(statuses):
            if t != tid:
                continue
            if status[0] == "lin" and status[1] == mname and status[2] == value:
                out.add((abstract, statuses[:index] + statuses[index + 1:]))
            break
    return _close(spec, out)


def _parse_history_label(label: Hashable) -> Tuple[str, int, str, Any]:
    if (
        isinstance(label, tuple)
        and len(label) == 4
        and label[0] in ("call", "ret")
    ):
        return label  # type: ignore[return-value]
    raise ModelError(
        f"reachability engine needs call/ret history labels, got {label!r}"
    )


@dataclass
class ReachabilitySearch:
    """Raw outcome of the monitor-product reachability search.

    ``states_expanded`` / ``states_interned`` are only filled when the
    search streams its implementation (:func:`reachability_search` over
    a :class:`~repro.lang.StreamingExplorer`): how many implementation
    states the fused product search actually demanded from the
    explorer, and how many it discovered (interned), respectively.  A
    search over an explored system leaves them ``None``.
    """

    holds: bool
    counterexample: Optional[List[Hashable]]
    product_states: int
    monitor_states: int
    states_expanded: Optional[int] = None
    states_interned: Optional[int] = None


def reachability_search(
    impl: Union[FrozenLTS, StreamingExplorer],
    spec: SpecObject,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
) -> ReachabilitySearch:
    """Decide linearizability of an object system by reachability.

    ``impl`` is an object system whose visible labels are the
    ``("call", t, m, args)`` / ``("ret", t, m, value)`` history tuples
    the most-general client produces: an explored LTS
    (:func:`repro.lang.explore`) or a
    :class:`~repro.lang.StreamingExplorer` built with
    ``cache_edges=True``.  Silent steps keep the monitor unchanged.
    Returns whether no violation (empty monitor set) is reachable, plus
    a violating visible history when one is.

    Over an explored system the frontier is FIFO (breadth-first), so a
    witness is a shortest violating history.  Over a stream it is LIFO
    (depth-first) and successors are expanded on demand: antichain
    subsumption prunes a product pair *before* its implementation state
    is expanded, and a violation ends the run without a full
    exploration.  DFS commits to deep suffixes early, which makes
    shallow bugs cheap; its witness is *a* violating history, not
    necessarily a shortest one.  A TRUE verdict exhausts every
    reachable pair either way.

    ``stats`` (optional) times the search under a ``reachability`` stage
    and records product/monitor state counts (plus the stream's
    ``states_expanded``/``states_interned``); ``budget`` (optional) is
    checked once per popped pair under phase ``"reachability"``, or the
    interleaved ``"explore+reachability"`` when streaming (demand
    expansions inside the explorer still report phase ``"explore"``).
    """
    if stats is None:
        return _search(impl, spec, budget)
    with stats.stage("reachability"):
        result = _search(impl, spec, budget)
        stats.count("product_states", result.product_states)
        stats.count("monitor_states", result.monitor_states)
        if result.states_expanded is not None:
            stats.count("states_expanded", result.states_expanded)
            stats.count("states_interned", result.states_interned)
    return result


def _search(
    impl: Union[FrozenLTS, StreamingExplorer],
    spec: SpecObject,
    budget: Optional[RunBudget],
) -> ReachabilitySearch:
    streaming = isinstance(impl, StreamingExplorer)
    if streaming:
        # The only place a streamed state gets expanded: a product pair
        # the antichain subsumes is never popped, so it never costs an
        # expansion of a fresh implementation state.
        successors = impl.successors_of
        init, phase = impl.init_id, PHASE_EXPLORE_REACHABILITY
    else:
        labels = impl.action_labels

        def successors(state: int) -> List[Tuple[int, Hashable, int]]:
            return [(aid, labels[aid], dst) for aid, dst in impl.successors(state)]

        init, phase = impl.init, "reachability"
    init_mset = initial_monitor(spec)
    monitor_sets: Set[MonitorSet] = {init_mset}
    start = (init, init_mset)
    # Antichain of visited monitor sets per implementation state.
    visited: Dict[int, List[MonitorSet]] = {init: [init_mset]}
    parents: Dict[
        Tuple[int, MonitorSet],
        Tuple[Optional[Tuple[int, MonitorSet]], Optional[Hashable]],
    ] = {start: (None, None)}
    frontier: deque = deque([start])
    pop = frontier.pop if streaming else frontier.popleft
    # The monitor transition function only depends on (mset, action), so
    # product states sharing a monitor set share the computed successor.
    post_cache: Dict[Tuple[MonitorSet, int], MonitorSet] = {}

    def subsumed(state: int, mset: MonitorSet) -> bool:
        for existing in visited.get(state, ()):
            if existing <= mset:
                return True
        return False

    def record(state: int, mset: MonitorSet) -> None:
        chain = visited.setdefault(state, [])
        chain[:] = [existing for existing in chain if not (mset <= existing)]
        chain.append(mset)

    def outcome(trace: Optional[List[Hashable]]) -> ReachabilitySearch:
        return ReachabilitySearch(
            holds=trace is None,
            counterexample=trace,
            product_states=len(parents),
            monitor_states=len(monitor_sets),
            states_expanded=impl.states_expanded if streaming else None,
            states_interned=impl.num_states if streaming else None,
        )

    while frontier:
        if budget is not None and budget.armed:
            budget.check(
                phase,
                pairs=len(parents),
                queued=len(frontier),
                monitors=len(monitor_sets),
            )
        node = pop()
        state, mset = node
        for aid, label, dst in successors(state):
            if aid == TAU_ID:
                if subsumed(dst, mset):
                    continue
                record(dst, mset)
                succ = (dst, mset)
                parents[succ] = (node, None)
                frontier.append(succ)
                continue
            key = (mset, aid)
            new_mset = post_cache.get(key)
            if new_mset is None:
                kind, tid, mname, payload = _parse_history_label(label)
                if kind == "call":
                    new_mset = monitor_after_call(spec, mset, tid, mname, payload)
                else:
                    new_mset = monitor_after_return(
                        spec, mset, tid, mname, payload
                    )
                post_cache[key] = new_mset
                monitor_sets.add(new_mset)
            if not new_mset:
                if _SKIP_VIOLATION_STATE:
                    continue
                if (
                    _SKIP_FRONTIER_CHECK and streaming
                    and not impl.is_expanded(dst)
                ):
                    continue
                # Violation: reconstruct the offending visible history.
                trace: List[Hashable] = [label]
                cursor: Optional[Tuple[int, MonitorSet]] = node
                while cursor is not None:
                    parent, step_label = parents[cursor]
                    if step_label is not None:
                        trace.append(step_label)
                    cursor = parent
                trace.reverse()
                return outcome(trace)
            if subsumed(dst, new_mset):
                continue
            record(dst, new_mset)
            succ = (dst, new_mset)
            parents[succ] = (node, label)
            frontier.append(succ)
    return outcome(None)


@dataclass
class ReachabilityResult:
    """Outcome of the BEEH reachability pipeline (mirrors
    :class:`~repro.verify.linearizability.LinearizabilityResult`).

    ``counterexample`` is a violating visible history (call/ret labels)
    -- a trace of the implementation that no assignment of linearization
    points can explain.  ``linearizable`` is three-valued exactly like
    the quotient engine's: ``None`` means a budget ran out first and
    ``exhaustion`` says where.
    """

    object_name: str
    linearizable: Optional[bool]
    counterexample: Optional[List[Hashable]]
    impl_states: int
    product_states: int
    monitor_states: int
    num_threads: int
    ops_per_thread: int
    explore_seconds: float
    check_seconds: float
    #: The metrics sink the pipeline recorded into (None when disabled).
    stats: Optional[Stats] = None
    #: Why the pipeline stopped early (None when it completed).
    exhaustion: Optional[Exhaustion] = None
    #: Which verdict engine produced this result.
    method: str = "reachability"
    #: Whether the fused streaming search produced this result; when
    #: True, ``impl_states`` counts states *interned* by the stream and
    #: ``states_expanded`` counts the (usually far smaller) subset the
    #: product search actually expanded.  Fused runs interleave
    #: exploration with checking, so ``explore_seconds`` covers only
    #: setup and the fused loop is all in ``check_seconds``.
    on_the_fly: bool = False
    states_expanded: Optional[int] = None

    @property
    def verdict(self) -> str:
        """``TRUE`` / ``FALSE`` / ``UNKNOWN``."""
        return verdict_of(self.linearizable)

    @property
    def total_seconds(self) -> float:
        return self.explore_seconds + self.check_seconds

    def render_counterexample(self) -> str:
        if self.counterexample is None:
            return "<linearizable: no counterexample>"
        lines = ["<initial state>"]
        for label in self.counterexample:
            lines.append(f'  "{label}"')
        lines.append("  -- no linearization explains the last action --")
        return "\n".join(lines)


def check_linearizability_reachability(
    program: ObjectProgram,
    spec: SpecObject,
    num_threads: int = 2,
    ops_per_thread: int = 2,
    workload: Optional[Workload] = None,
    max_states: Optional[int] = None,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    on_the_fly: bool = False,
    impl_system: Optional[FrozenLTS] = None,
) -> ReachabilityResult:
    """Run the full BEEH reachability pipeline for one object.

    Explores the object system under the most-general client (the same
    exploration core as the quotient pipeline), then searches the
    implementation x specification-monitor product for a reachable
    violation.  At equal ``(num_threads, ops_per_thread, workload)``
    bounds the verdict provably matches
    :func:`~repro.verify.linearizability.check_linearizability` -- the
    two engines share nothing past exploration, which is what makes the
    agreement a meaningful cross-check (``lin --method both``).

    ``on_the_fly=True`` fuses exploration with the product search
    (:func:`reachability_search` over a streaming explorer): same
    verdict, but a violation is reported after expanding only the
    states the search actually touched.

    ``impl_system``, when given, is a pre-explored object system to
    check instead of exploring here -- the verdict job
    (:func:`repro.verify.job.run_job`) explores once and shares it, so
    ``lin --method both`` explores once for both engines.  It must come
    from the same program/bounds; ``on_the_fly`` is ignored with a
    shared system (there is nothing left to stream).

    With a :class:`~repro.util.metrics.Stats` sink the pipeline records
    ``explore`` and ``reachability`` stages plus product/monitor state
    counters.  With a :class:`~repro.util.budget.RunBudget` it is
    governed end to end: exhaustion in any phase yields a result with
    ``linearizable=None`` (verdict ``UNKNOWN``) carrying the exhaustion
    record -- it never raises.
    """
    if workload is None:
        raise ValueError("a workload (method/argument universe) is required")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    fused = on_the_fly and impl_system is None
    explorer: Optional[StreamingExplorer] = None
    impl_states = 0
    t0 = t1 = time.perf_counter()
    try:
        if fused:
            explorer = StreamingExplorer(
                ExpansionContext(program, config), budget=budget,
                cache_edges=True,
            )
            t1 = time.perf_counter()
            search = reachability_search(
                explorer, spec, stats=stats, budget=budget,
            )
            impl_states = explorer.num_states
        else:
            if impl_system is not None:
                impl = impl_system
            else:
                impl = explore(program, config, stats=stats, budget=budget)
            impl_states = impl.num_states
            t1 = time.perf_counter()
            search = reachability_search(impl, spec, stats=stats, budget=budget)
        t2 = time.perf_counter()
    except BudgetExhausted as exc:
        now = time.perf_counter()
        if explorer is not None:
            impl_states = explorer.num_states
        return ReachabilityResult(
            object_name=program.name,
            linearizable=None,
            counterexample=None,
            impl_states=impl_states,
            product_states=0,
            monitor_states=0,
            num_threads=num_threads,
            ops_per_thread=ops_per_thread,
            explore_seconds=(t1 - t0) if t1 > t0 else now - t0,
            check_seconds=(now - t1) if t1 > t0 else 0.0,
            stats=stats,
            exhaustion=exc.exhaustion,
            on_the_fly=fused,
            states_expanded=(
                explorer.states_expanded if explorer is not None else None
            ),
        )
    return ReachabilityResult(
        object_name=program.name,
        linearizable=search.holds,
        counterexample=search.counterexample,
        impl_states=impl_states,
        product_states=search.product_states,
        monitor_states=search.monitor_states,
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        explore_seconds=t1 - t0,
        check_seconds=t2 - t1,
        stats=stats,
        on_the_fly=fused,
        states_expanded=search.states_expanded,
    )
