"""Differential fuzzing: fast engine vs. naive reference oracles.

The harness generates random instances (raw LTSs and explored random
client programs), runs every equivalence through both the signature-
refinement engine (:mod:`repro.core`) and the slow relational oracles
(:mod:`repro.testing.oracles`), checks the metamorphic laws
(:mod:`repro.testing.laws`), and cross-checks trace refinement including
counterexample validity.  Any disagreement is shrunk to a minimal LTS
by greedy delta-debugging and written to the regression corpus
(``tests/corpus/``) so it becomes a permanent replay test.

Generated *programs* additionally go through both linearizability
verdict engines (:func:`check_verdict_engines`): the quotient/trace-
refinement pipeline and the BEEH reachability backend
(:mod:`repro.verify.reachability`) must agree verdict-for-verdict
against the program's own :func:`~repro.lang.spec.atomic_spec`, and any
reachability violation witness must replay as an implementation trace
the specification cannot produce.  Two deterministic canary programs
run first so the engine mutations below are caught without luck.
On instances small enough for the oracles, every state pair's
distinguishing experiment (:mod:`repro.core.diagnostics`) is checked
against the oracle and the LTS (:func:`check_explanations`).  Every
generated program, and a few registry objects that read node fields,
are re-expanded state by state without the explorer's thread-step
cache (:func:`check_step_cache`).

``python -m repro fuzz`` is the CLI front end; the ``--mutate`` option
re-runs the harness against a deliberately broken engine (e.g. a
splitter that forgets a splitter block, or a monitor that loses
linearization steps) to prove the harness would catch a real
regression -- the CI job does exactly that.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core import (
    DIVERGENCE_MARK,
    Explanation,
    FrozenLTS,
    SplitTree,
    branching_partition,
    is_refinement,
    quotient_lts,
    same_partition,
    split_tree,
    strong_partition,
    trace_refines,
    weak_partition,
)
from ..core.aut import write_aut
from ..core.lts import LTSBuilder, _same_content, make_lts
from ..core.partition import BlockMap
from ..lang.client import ExpansionContext, StateExplosion
from ..lang.state import canonicalize
from ..util.budget import BudgetExhausted, CancellationToken, RunBudget
from . import generators, laws, oracles

#: Engine partition per relation name.  The branching entries run with
#: the silent-structure reduction pass *enabled*, so every fuzz run
#: oracle-validates the reduced pipeline end to end; the unreduced path
#: is pinned against it separately by :func:`check_reduction`.
ENGINE_PARTITIONS: Dict[str, Callable[..., BlockMap]] = {
    "strong": strong_partition,
    "branching": lambda lts, budget=None: branching_partition(
        lts, reduce=True, budget=budget
    ),
    "branching-div": lambda lts, budget=None: branching_partition(
        lts, divergence=True, reduce=True, budget=budget
    ),
    "weak": weak_partition,
}

#: Reference oracle per relation name.
ORACLE_RELATIONS: Dict[str, Callable[..., oracles.Relation]] = {
    "strong": oracles.strong_bisimulation_relation,
    "branching": oracles.branching_bisimulation_relation,
    "branching-div": oracles.divergence_sensitive_branching_relation,
    "weak": oracles.weak_bisimulation_relation,
}

#: ``(engine, oracle-or-None)`` pairs additionally checked while
#: refining from a non-trivial *initial* partition.  Starting from the
#: trivial partition, the current block carries no information; seeded
#: refinement is the code path where the engine must keep apart states
#: the seed separates, so these checks give the harness teeth against
#: bugs that lose the seed.
#:
#: Only strong bisimilarity gets the full engine-vs-oracle comparison:
#: for it, seeded signature refinement provably computes the greatest
#: bisimulation inside the seed.  For branching bisimilarity the two
#: natural seed-relative definitions differ -- the literal Definition
#: 4.1 transfer does not constrain the intermediate states of the
#: ``t ==tau*==> t_hat`` path, while inert-path signatures keep them in
#: the current block, and the Stuttering Lemma that reconciles the two
#: only applies to the unseeded greatest fixed point -- so branching
#: only gets the structural refines-its-seed check (which is already
#: sensitive to split-key bugs).
SEEDED_RELATIONS: Dict[
    str,
    Tuple[Callable[..., BlockMap], Optional[Callable[..., oracles.Relation]]],
] = {
    "strong-seeded": (
        strong_partition,
        oracles.strong_bisimulation_relation,
    ),
    "branching-seeded": (
        branching_partition,
        None,
    ),
}


def parity_seed(lts: FrozenLTS) -> BlockMap:
    """A deterministic non-trivial initial partition (state parity)."""
    return [state % 2 for state in range(lts.num_states)]


@dataclass
class Disagreement:
    """One engine/oracle (or law) mismatch on a concrete instance."""

    kind: str          # "relation", "trace", "law", "verdict", ...
    name: str          # relation or law name
    detail: str
    lts: Optional[FrozenLTS] = None
    #: Replay predicate for the shrinker: ``replay(candidate_lts)`` is
    #: True when the candidate still exhibits this disagreement.  Used
    #: by kinds whose check needs context beyond the LTS itself (the
    #: verdict-engine cross-check carries its specification here).
    replay: Optional[Callable[[FrozenLTS], bool]] = None
    #: Extra key/value context merged into the corpus ``.meta.json``.
    meta: Optional[Dict[str, object]] = None

    def render(self) -> str:
        return f"[{self.kind}:{self.name}] {self.detail}"


def check_equivalences(
    lts: FrozenLTS,
    relations: Optional[List[str]] = None,
    budget: Optional[RunBudget] = None,
) -> List[Disagreement]:
    """Engine vs. oracle on every state pair, for every relation."""
    out: List[Disagreement] = []
    for name in relations or list(ENGINE_PARTITIONS):
        block_of = ENGINE_PARTITIONS[name](lts, budget=budget)
        relation = ORACLE_RELATIONS[name](lts, budget=budget)
        mismatch = oracles.relation_agrees_with_partition(relation, block_of)
        if mismatch is not None:
            s, t = mismatch
            engine_says = block_of[s] == block_of[t]
            out.append(Disagreement(
                kind="relation",
                name=name,
                detail=(
                    f"states {s} and {t}: engine says "
                    f"{'equivalent' if engine_says else 'inequivalent'}, "
                    f"oracle says the opposite"
                ),
                lts=lts,
            ))
    return out


def check_seeded_refinement(
    lts: FrozenLTS,
    relations: Optional[List[str]] = None,
    oracle_state_limit: int = 40,
    budget: Optional[RunBudget] = None,
) -> List[Disagreement]:
    """Engine vs. oracle when refining from a non-trivial seed partition.

    The engine must produce a refinement of the seed (checked on every
    instance -- it is cheap and purely structural), and on small systems
    the result must coincide with the greatest bisimulation the oracle
    finds inside the seed, for the relations where that comparison is
    sound (see :data:`SEEDED_RELATIONS`).
    """
    out: List[Disagreement] = []
    seed_blocks = parity_seed(lts)
    for name in relations or list(SEEDED_RELATIONS):
        engine_fn, oracle_fn = SEEDED_RELATIONS[name]
        block_of = engine_fn(lts, initial=list(seed_blocks), budget=budget)
        if not is_refinement(block_of, seed_blocks):
            out.append(Disagreement(
                kind="seeded",
                name=name,
                detail="refined partition does not refine its seed partition",
                lts=lts,
            ))
            continue
        if oracle_fn is None or lts.num_states > oracle_state_limit:
            continue
        relation = oracle_fn(lts, initial=seed_blocks, budget=budget)
        mismatch = oracles.relation_agrees_with_partition(relation, block_of)
        if mismatch is not None:
            s, t = mismatch
            engine_says = block_of[s] == block_of[t]
            out.append(Disagreement(
                kind="seeded",
                name=name,
                detail=(
                    f"seeded refinement, states {s} and {t}: engine says "
                    f"{'equivalent' if engine_says else 'inequivalent'}, "
                    f"oracle says the opposite"
                ),
                lts=lts,
            ))
    return out


#: Reduced-vs-unreduced pairs checked by :func:`check_reduction`.
REDUCTION_RELATIONS: Dict[str, bool] = {
    "branching-reduced": False,
    "branching-div-reduced": True,
}


def check_reduction(
    lts: FrozenLTS,
    relations: Optional[List[str]] = None,
    budget: Optional[RunBudget] = None,
) -> List[Disagreement]:
    """Reduced vs. unreduced engine on the same instance.

    The reduction pass must be invisible: the partition computed on the
    compressed system and lifted back has to induce exactly the
    equivalence the unreduced engine computes, for both plain and
    divergence-sensitive branching bisimilarity.
    """
    out: List[Disagreement] = []
    for name in relations or list(REDUCTION_RELATIONS):
        divergence = REDUCTION_RELATIONS[name]
        plain = branching_partition(lts, divergence=divergence, budget=budget)
        reduced = branching_partition(
            lts, divergence=divergence, reduce=True, budget=budget
        )
        if not same_partition(plain, reduced):
            out.append(Disagreement(
                kind="reduction",
                name=name,
                detail=(
                    "reduced-engine partition differs from the unreduced "
                    f"one: {reduced} vs {plain}"
                ),
                lts=lts,
            ))
    return out


def check_trace_refinement(
    impl: FrozenLTS, spec: FrozenLTS, budget: Optional[RunBudget] = None
) -> List[Disagreement]:
    """Engine vs. brute-force trace inclusion, both the verdict and the
    counterexample (which must be a trace of ``impl`` but not ``spec``)."""
    out: List[Disagreement] = []
    engine = trace_refines(impl, spec, budget=budget)
    oracle_holds, _ = oracles.weak_trace_inclusion(impl, spec, budget=budget)
    if engine.holds != oracle_holds:
        out.append(Disagreement(
            kind="trace",
            name="refinement",
            detail=(
                f"engine says refinement {'holds' if engine.holds else 'fails'}, "
                f"oracle says the opposite"
            ),
            lts=impl,
        ))
        return out
    if not engine.holds:
        trace = engine.counterexample or []
        if not oracles.is_trace_of(impl, list(trace)):
            out.append(Disagreement(
                kind="trace",
                name="counterexample",
                detail=f"engine counterexample {trace!r} is not a trace of impl",
                lts=impl,
            ))
        elif oracles.is_trace_of(spec, list(trace)):
            out.append(Disagreement(
                kind="trace",
                name="counterexample",
                detail=f"engine counterexample {trace!r} is a trace of spec",
                lts=impl,
            ))
    return out


def quotient_refinement_verdict(
    impl: FrozenLTS, spec_system: FrozenLTS, budget: Optional[RunBudget] = None
) -> bool:
    """The quotient engine's linearizability verdict on an explored pair
    (the Theorem 5.3 pipeline minus the exploration stage)."""
    impl_quotient = quotient_lts(
        impl, branching_partition(impl, reduce=True, budget=budget)
    )
    spec_quotient = quotient_lts(
        spec_system, branching_partition(spec_system, reduce=True, budget=budget)
    )
    return trace_refines(
        impl_quotient.lts, spec_quotient.lts, budget=budget
    ).holds


def verdict_engine_disagreements(
    impl: FrozenLTS,
    spec,
    spec_system: FrozenLTS,
    budget: Optional[RunBudget] = None,
    meta: Optional[Dict[str, object]] = None,
) -> List[Disagreement]:
    """Both verdict engines on an already-explored object system.

    ``spec`` is the :class:`~repro.lang.spec.SpecObject` the
    reachability monitor composes with; ``spec_system`` is the same
    specification explored under the same client bounds, which is what
    the quotient engine refines against.  Reports a disagreement when
    the verdicts differ, and when the reachability engine's violation
    witness is not an implementation trace or is one the specification
    can produce.
    """
    from ..verify.reachability import reachability_search

    search = reachability_search(impl, spec, budget=budget)
    quotient_holds = quotient_refinement_verdict(impl, spec_system, budget=budget)
    out: List[Disagreement] = []
    if search.holds != quotient_holds:
        def replay(candidate: FrozenLTS) -> bool:
            try:
                cand = reachability_search(candidate, spec)
                return cand.holds != quotient_refinement_verdict(
                    candidate, spec_system
                )
            except Exception:
                return False

        out.append(Disagreement(
            kind="verdict",
            name="lin-engines",
            detail=(
                "reachability engine says "
                f"{'linearizable' if search.holds else 'not linearizable'}, "
                "the quotient engine says the opposite"
            ),
            lts=impl,
            replay=replay,
            meta=meta,
        ))
        return out
    if not search.holds:
        witness = list(search.counterexample or [])
        if not oracles.is_trace_of(impl, witness):
            out.append(Disagreement(
                kind="verdict",
                name="reachability-counterexample",
                detail=(
                    f"violation witness {witness!r} is not a trace of the "
                    "implementation"
                ),
                lts=impl,
                meta=meta,
            ))
        elif oracles.is_trace_of(spec_system, witness):
            out.append(Disagreement(
                kind="verdict",
                name="reachability-counterexample",
                detail=(
                    f"violation witness {witness!r} is a trace of the "
                    "specification (so the history is linearizable)"
                ),
                lts=impl,
                meta=meta,
            ))
    return out


def onthefly_disagreements(
    program,
    spec,
    config,
    impl: FrozenLTS,
    spec_system: FrozenLTS,
    budget: Optional[RunBudget] = None,
    meta: Optional[Dict[str, object]] = None,
) -> List[Disagreement]:
    """Cross-check the fused on-the-fly lane against the classic search.

    The *fused product search*
    (:func:`~repro.verify.reachability.reachability_search` over a
    demand-driven :class:`~repro.lang.StreamingExplorer`) must
    return the verdict of the classic full-exploration reachability
    search for the same program and bounds, and its violation witness
    must be an implementation trace the specification cannot produce --
    this is the cross-check behind the ``onthefly-skip-frontier-check``
    mutation (caught deterministically by ``canary_mark``).
    """
    from ..lang import ExpansionContext, StreamingExplorer
    from ..verify.reachability import reachability_search

    out: List[Disagreement] = []
    classic = reachability_search(impl, spec, budget=budget)

    explorer = StreamingExplorer(
        ExpansionContext(program, config), budget=budget, cache_edges=True
    )
    fused = reachability_search(explorer, spec, budget=budget)
    if fused.holds != classic.holds:
        out.append(Disagreement(
            kind="verdict",
            name="onthefly-reachability",
            detail=(
                "fused streaming reachability says "
                f"{'linearizable' if fused.holds else 'not linearizable'}, "
                "the full-exploration search says the opposite"
            ),
            lts=impl,
            meta=meta,
        ))
    elif not fused.holds:
        witness = list(fused.counterexample or [])
        if not oracles.is_trace_of(impl, witness):
            out.append(Disagreement(
                kind="verdict",
                name="onthefly-counterexample",
                detail=(
                    f"fused violation witness {witness!r} is not a trace "
                    "of the implementation"
                ),
                lts=impl,
                meta=meta,
            ))
        elif oracles.is_trace_of(spec_system, witness):
            out.append(Disagreement(
                kind="verdict",
                name="onthefly-counterexample",
                detail=(
                    f"fused violation witness {witness!r} is a trace of "
                    "the specification (so the history is linearizable)"
                ),
                lts=impl,
                meta=meta,
            ))
    return out


def check_verdict_engines(
    program,
    spec,
    num_threads: int = 2,
    ops_per_thread: int = 1,
    workload=None,
    max_states: Optional[int] = 2000,
    budget: Optional[RunBudget] = None,
    meta: Optional[Dict[str, object]] = None,
) -> List[Disagreement]:
    """Cross-check the two linearizability verdict engines on a program.

    Explores the object system and the specification system once under
    identical client bounds, then compares the quotient/trace-refinement
    verdict with the BEEH reachability verdict
    (:func:`verdict_engine_disagreements`).  At equal bounds the engines
    provably agree, so any disagreement is an engine bug -- this is the
    cross-check behind the ``drop-monitor-transition`` and
    ``skip-violation-state`` mutations.  The fused on-the-fly lane is
    then cross-checked against the classic verdict on the same instance
    (:func:`onthefly_disagreements`).
    """
    from ..lang import ClientConfig, explore, spec_lts

    if workload is None:
        raise ValueError("a workload is required")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    impl = explore(program, config, budget=budget)
    spec_system = spec_lts(
        spec, num_threads, ops_per_thread, workload,
        max_states=max_states, budget=budget,
    )
    out = verdict_engine_disagreements(
        impl, spec, spec_system, budget=budget, meta=meta
    )
    out.extend(onthefly_disagreements(
        program, spec, config, impl, spec_system, budget=budget, meta=meta
    ))
    return out


def _canary_programs():
    """Three fixed programs that deterministically separate the verdict
    engines under each reachability mutation.

    * ``canary_flag`` (a write-once flag) is linearizable: a monitor
      that loses other threads' linearization steps
      (``drop-monitor-transition``) wrongly rejects thread 2's
      completed operation, so reachability flips to FALSE.
    * ``canary_blink`` (a 0->1->0 glitch observable by ``get``) is
      *not* linearizable against its atomic spec: an engine that skips
      the violation state (``skip-violation-state``) can never report
      FALSE, so reachability flips to TRUE.
    * ``canary_mark`` is ``canary_blink`` with the observed value
      written to a global *before* returning: the post-violation states
      are then reachable only through violating edges, so in the fused
      streaming search their implementation states never leave the
      frontier and an engine that skips frontier violations
      (``onthefly-skip-frontier-check``) flips to TRUE.  (On
      ``canary_blink`` itself the post-return state merges violating
      and innocent histories -- locals are cleared on return -- so the
      destination is always expanded first and that mutation survives.)
    """
    from ..lang import Method, ObjectProgram, ReadGlobal, Return, WriteGlobal

    get = Method(
        "get", locals_={"x": 0}, body=[ReadGlobal("x", "g"), Return("x")]
    )
    flag = ObjectProgram(
        "canary_flag",
        [Method("set1", body=[WriteGlobal("g", 1), Return(0)]), get],
        globals_={"g": 0},
    )
    blink_method = Method(
        "blink",
        body=[WriteGlobal("g", 1), WriteGlobal("g", 0), Return(0)],
    )
    blink = ObjectProgram(
        "canary_blink",
        [blink_method, get],
        globals_={"g": 0},
    )
    mark = ObjectProgram(
        "canary_mark",
        [
            blink_method,
            Method(
                "mark",
                locals_={"x": 0},
                body=[
                    ReadGlobal("x", "g"),
                    WriteGlobal("seen", "x"),
                    Return("x"),
                ],
            ),
        ],
        globals_={"g": 0, "seen": 0},
    )
    return [
        ("canary-flag", flag, [("set1", ()), ("get", ())]),
        ("canary-blink", blink, [("blink", ()), ("get", ())]),
        ("canary-mark", mark, [("blink", ()), ("mark", ())]),
    ]


#: Registry objects whose step cache the fuzz loop checks at 2x1
#: (:func:`check_step_cache`): random programs read and write globals
#: only, these also read fields, CAS, allocate and free.
STEP_CACHE_CANARIES = ("treiber", "hm_list", "ms_queue", "treiber_hp_buggy")


def _expansions(program, config, builder, fresh: bool):
    """The DFS of ``explore`` into ``builder``: yields each state key
    with its edges, in expansion order.

    ``fresh`` expands every state with a new
    :class:`~repro.lang.client.ExpansionContext`, so no step is served
    from a cache; otherwise one context serves the whole run, as in
    ``explore``.  States are interned and pushed one edge at a time.
    """
    context = ExpansionContext(program, config)
    builder.set_init(context.initial_key())
    stack = [builder.lts.init]
    while stack:
        sid = stack.pop()
        key = builder.state_keys[sid]
        if fresh:
            context = ExpansionContext(program, config)
        edges = context.expand(key)
        yield key, edges
        for label, dst, annotation in edges:
            dst_id, is_new = builder.intern(dst)
            builder.lts.add_transition(sid, label, dst_id, annotation)
            if is_new:
                stack.append(dst_id)


def explore_without_step_cache(program, config) -> FrozenLTS:
    """The system ``explore`` builds, with every state expanded by a
    fresh context: the reference the step cache must reproduce."""
    builder = LTSBuilder()
    for _expansion in _expansions(program, config, builder, fresh=True):
        pass
    return builder.lts.freeze()


def _edge_problem(edge, reference, canonical: bool) -> Optional[str]:
    """How a cached edge differs from the uncached one, or ``None``."""
    label, dst, annotation = edge
    if not _same_content(label, reference[0]):
        return f"label {label!r}, uncached {reference[0]!r}"
    if annotation != reference[2]:
        return f"annotation {annotation!r}, uncached {reference[2]!r}"
    if not _same_content(dst, reference[1]):
        return f"destination {dst!r}, uncached {reference[1]!r}"
    if canonical and not _same_content(canonicalize(*dst), dst):
        return f"destination {dst!r} is not canonical"
    return None


def check_step_cache(
    program,
    config,
    budget: Optional[RunBudget] = None,
    meta: Optional[Dict[str, object]] = None,
) -> List[Disagreement]:
    """The step cache vs. expansion without it, state by state.

    Explores ``program`` under ``config`` as ``explore`` does, with one
    context, and re-expands every state with a fresh one.  The edge
    lists must agree in order, label, annotation and destination key,
    type-exactly, and every destination must be canonical when the heap
    is.  Reports the first state that differs.
    """
    canonical = config.canonicalize_heap
    builder = LTSBuilder()
    expansions = _expansions(program, config, builder, fresh=False)
    for count, (key, edges) in enumerate(expansions):
        if budget is not None:
            budget.check("explore", states=count)
        reference = ExpansionContext(program, config).expand(key)
        problem = None
        if len(edges) != len(reference):
            problem = f"{len(edges)} edges, uncached {len(reference)}"
        else:
            for index, (edge, expected) in enumerate(zip(edges, reference)):
                found = _edge_problem(edge, expected, canonical)
                if found is not None:
                    problem = f"edge {index}: {found}"
                    break
        if problem is not None:
            return [Disagreement(
                kind="step-cache",
                name=program.name,
                detail=f"state {count} expanded: {problem}",
                lts=builder.lts.freeze(),
                meta=meta,
            )]
    return []


#: Relations whose explanations :func:`check_explanations` validates,
#: with the divergence flag each is refined under.
EXPLAINED_RELATIONS: Dict[str, bool] = {
    "branching": False,
    "branching-div": True,
}


def explanation_problem(
    lts: FrozenLTS, explanation: Explanation, related: oracles.Relation
) -> Optional[str]:
    """What is wrong with ``explanation``, or ``None``.

    ``related`` is the oracle's relation of the equivalence explained.
    Every claimed move must be a transition of ``lts``; every opponent
    match must be a target of the same action, taken after silent steps
    from the opponent, and distinguishable from the witness's target;
    a divergence claim must hold inside the block it names (which holds
    both states and is a union of classes), and the opponent must not
    diverge there.
    """
    n = lts.num_states
    for depth, level in enumerate(explanation.levels):
        if level.action == DIVERGENCE_MARK:
            block = set(level.block)
            if not {level.witness_state, level.opponent_state} <= block:
                return f"level {depth}: its divergence block misses a state"
            if any(
                (s, t) in related and t not in block
                for s in block for t in range(n)
            ):
                return f"level {depth}: its divergence block splits a class"
            if not oracles.diverges_within(lts, level.witness_state, block):
                return f"level {depth}: the witness does not diverge in its block"
            if oracles.diverges_within(lts, level.opponent_state, block):
                return f"level {depth}: the opponent diverges in the block too"
            continue
        aid = lts.lookup_action(level.action)
        if aid is None or (aid, level.witness_target) not in lts.successors(
            level.witness_state
        ):
            return (
                f"level {depth}: claims {level.witness_state} "
                f"--{level.action!r}--> {level.witness_target}, which is no "
                "transition"
            )
        reach = oracles.tau_reachable(lts, level.opponent_state)
        for target in level.opponent_targets:
            if not any((aid, target) in lts.successors(x) for x in reach):
                return (
                    f"level {depth}: opponent match {target} is no "
                    f"{level.action!r}-target of {level.opponent_state}"
                )
            if (level.witness_target, target) in related:
                return (
                    f"level {depth}: opponent match {target} is equivalent "
                    f"to the witness target {level.witness_target}"
                )
    return None


def check_explanations(
    lts: FrozenLTS,
    relations: Optional[List[str]] = None,
    budget: Optional[RunBudget] = None,
) -> List[Disagreement]:
    """Explanations vs. the oracle on every state pair.

    For each relation of :data:`EXPLAINED_RELATIONS`, the split tree of
    one reduced refinement (:func:`repro.core.split_tree`, the log
    ``repro compare --reduce`` explains from) must explain exactly the
    pairs the oracle separates, and every explanation must pass
    :func:`explanation_problem`.  One disagreement per relation.
    """
    out: List[Disagreement] = []
    for name in relations or list(EXPLAINED_RELATIONS):
        related = ORACLE_RELATIONS[name](lts, budget=budget)
        tree = split_tree(
            lts, divergence=EXPLAINED_RELATIONS[name], budget=budget
        )
        found = _explanation_mismatch(lts, tree, related, budget)
        if found is not None:
            s, t, problem = found
            out.append(Disagreement(
                kind="explanation",
                name=name,
                detail=f"states {s} and {t}: {problem}",
                lts=lts,
            ))
    return out


def _explanation_mismatch(
    lts: FrozenLTS, tree: SplitTree, related: oracles.Relation,
    budget: Optional[RunBudget],
) -> Optional[Tuple[int, int, str]]:
    """The first state pair whose explanation is wrong, and why."""
    for s in range(lts.num_states):
        for t in range(lts.num_states):
            explanation = tree.explain(s, t, budget=budget)
            if explanation is None:
                if (s, t) not in related:
                    return s, t, "no explanation, but the oracle separates them"
                continue
            if (s, t) in related:
                return s, t, "an explanation, but the oracle relates them"
            problem = explanation_problem(lts, explanation, related)
            if problem is not None:
                return s, t, problem
    return None


def _cancelled() -> RunBudget:
    """A budget with no deadline or RSS cap whose token is already set."""
    token = CancellationToken()
    token.set()
    return RunBudget(token=token)


def check_budget_governance(lts: FrozenLTS) -> List[Disagreement]:
    """The engines must honour an already-exhausted run budget.

    Runs the branching engine under a zero deadline, and exploration
    (of the first canary program) and trace inclusion of ``lts`` in
    itself under a token that is already set, and demands the
    structured :class:`~repro.util.budget.BudgetExhausted` from each.
    A mutation (or regression) that drops the cooperative checks, or a
    loop gate (:attr:`~repro.util.budget.RunBudget.armed`) that forgets
    the token, makes a run complete instead -- which this check reports
    as a disagreement, giving the harness teeth over the governance
    layer itself (``--mutate drop-budget-checks``).
    """
    if lts.num_states == 0:
        return []
    from ..lang import ClientConfig, explore

    _name, program, workload = _canary_programs()[0]
    runs = (
        ("governance", "a zero deadline", lambda: branching_partition(
            lts, budget=RunBudget(deadline_seconds=0.0)
        )),
        ("governance-explore", "a cancelled token", lambda: explore(
            program, ClientConfig(2, 1, workload), budget=_cancelled()
        )),
        ("governance-trace", "a cancelled token", lambda: trace_refines(
            lts, lts, budget=_cancelled()
        )),
    )
    out: List[Disagreement] = []
    for name, limit, run in runs:
        try:
            run()
        except BudgetExhausted:
            continue
        out.append(Disagreement(
            kind="budget",
            name=name,
            detail=(
                f"ran to completion under {limit} instead of raising "
                "BudgetExhausted"
            ),
            lts=lts,
        ))
    return out


def check_instance(
    lts: FrozenLTS,
    oracle_state_limit: int = 40,
    include_laws: bool = True,
    budget: Optional[RunBudget] = None,
) -> List[Disagreement]:
    """All differential checks on one LTS.

    Relational oracles are quartic, so instances above
    ``oracle_state_limit`` states skip the oracle comparisons and the
    explanation check, and run the laws and the trace cross-check
    against their own quotient.  ``budget``, when given, is
    threaded into the engine *and* the oracles, so a single slow
    instance cannot pin the whole fuzzing run.
    """
    out: List[Disagreement] = []
    if lts.num_states <= oracle_state_limit:
        out.extend(check_equivalences(lts, budget=budget))
        if not out:
            # A wrong partition is reported above; explanations are
            # checked against the oracle where the partition is right.
            out.extend(check_explanations(lts, budget=budget))
    out.extend(check_reduction(lts, budget=budget))
    out.extend(check_seeded_refinement(
        lts, oracle_state_limit=oracle_state_limit, budget=budget
    ))
    if include_laws:
        for name, message in laws.check_laws(lts):
            out.append(Disagreement(kind="law", name=name, detail=message, lts=lts))
    out.extend(check_budget_governance(lts))
    quotient = quotient_lts(lts, branching_partition(lts, budget=budget))
    out.extend(check_trace_refinement(lts, quotient.lts, budget=budget))
    out.extend(check_trace_refinement(quotient.lts, lts, budget=budget))
    return out


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def shrink_lts(lts: FrozenLTS, still_fails: Callable[[FrozenLTS], bool]) -> FrozenLTS:
    """Greedy delta-debugging: drop transitions, then trailing states.

    ``still_fails`` must be true of the input; the result is a local
    minimum -- removing any single transition (or the last state) makes
    the failure disappear.
    """
    transitions = [
        (src, lts.action_labels[aid], dst) for src, aid, dst in lts.transitions()
    ]
    num_states, init = lts.num_states, lts.init

    def build(n: int, trans: List[Tuple[int, object, int]]) -> FrozenLTS:
        return make_lts(n, init if init < n else 0, trans)

    improved = True
    while improved:
        improved = False
        for index in range(len(transitions)):
            candidate = transitions[:index] + transitions[index + 1:]
            try:
                if still_fails(build(num_states, candidate)):
                    transitions = candidate
                    improved = True
                    break
            except Exception:
                continue
        else:
            while num_states > 1:
                last = num_states - 1
                if init == last or any(
                    src == last or dst == last for src, _, dst in transitions
                ):
                    break
                try:
                    if not still_fails(build(num_states - 1, transitions)):
                        break
                except Exception:
                    break
                num_states -= 1
                improved = True
    return build(num_states, transitions)


# ----------------------------------------------------------------------
# engine mutations (to prove the harness has teeth)
# ----------------------------------------------------------------------

@contextmanager
def _mutate_skip_divergence_mark() -> Iterator[None]:
    """The branching splitter stops putting the divergence mark into the
    signatures of silent-cycle components, collapsing the divergence-
    sensitive variant into plain branching bisimulation.  Caught by the
    ``branching-div`` oracle relation."""
    from ..core import splitter as S

    original = S._MARK_DIVERGENCE
    S._MARK_DIVERGENCE = False
    try:
        yield
    finally:
        S._MARK_DIVERGENCE = original


@contextmanager
def _mutate_truncate_tau_closure() -> Iterator[None]:
    """Weak-bisimulation tau-closures collapse to singletons, losing all
    saturated moves."""
    from ..core import weak as W

    original = W.tau_closures

    def buggy(lts):
        return [frozenset({state}) for state in range(lts.num_states)]

    W.tau_closures = buggy
    try:
        yield
    finally:
        W.tau_closures = original


@contextmanager
def _mutate_reduce_ignore_divergence() -> Iterator[None]:
    """The reduction pass ignores its ``divergence`` flag: silent cycles
    are condensed without marks and confluent edges may cross out of a
    divergent class, so the lifted divergence-sensitive partition
    collapses divergent states into non-divergent ones."""
    from ..core import reduce as R

    original = R.reduce_lts

    def buggy(lts, divergence=False, stats=None, budget=None):
        return original(lts, divergence=False, stats=stats, budget=budget)

    R.reduce_lts = buggy
    try:
        yield
    finally:
        R.reduce_lts = original


@contextmanager
def _mutate_drop_budget_checks() -> Iterator[None]:
    """The cooperative budget checks become no-ops: deadlines, RSS
    caps and SIGINT cancellation are silently ignored and exhausted
    runs complete as if unbounded.  Caught by
    :func:`check_budget_governance`."""
    from ..util import budget as B

    original = B.RunBudget.check

    def buggy(self, phase, **progress):
        return None

    B.RunBudget.check = buggy
    try:
        yield
    finally:
        B.RunBudget.check = original


@contextmanager
def _mutate_splitter_drop_smaller_half() -> Iterator[None]:
    """The splitter queue stops re-queuing a coarse block that is still
    compound after its smaller half was carved out -- the classic
    "Hopcroft shortcut applied to a nondeterministic system" bug: later
    constituents are never used as splitters, so blocks that should
    separate on them stay merged.  Caught by the ``strong`` and
    ``strong-seeded`` oracle relations and the ``equivalence-order``
    law."""
    from ..core import splitter as S

    original = S._REQUEUE_COMPOUND
    S._REQUEUE_COMPOUND = False
    try:
        yield
    finally:
        S._REQUEUE_COMPOUND = original


@contextmanager
def _mutate_splitter_skip_dirty_preds() -> Iterator[None]:
    """The branching splitter stops marking predecessor blocks dirty
    when a block splits: their members keep stale signatures and blocks
    that should separate on the refined target stay merged.  Caught by
    the ``branching-div`` oracle relation."""
    from ..core import splitter as S

    original = S._DIRTY_PREDECESSORS
    S._DIRTY_PREDECESSORS = False
    try:
        yield
    finally:
        S._DIRTY_PREDECESSORS = original


@contextmanager
def _mutate_explain_skip_inert_prefix() -> Iterator[None]:
    """A distinguishing experiment claims its move from the state where
    the witness's inert path starts instead of where it ends, so the
    claimed transition does not exist whenever the path is non-empty.
    Verdicts and partitions are untouched; caught only by the
    explanation check (:func:`check_explanations`)."""
    from ..core import diagnostics as D

    original = D._INERT_PREFIX
    D._INERT_PREFIX = False
    try:
        yield
    finally:
        D._INERT_PREFIX = original


@contextmanager
def _mutate_drop_monitor_transition() -> Iterator[None]:
    """The reachability monitor loses every linearization step of
    threads other than thread 1: completed operations of those threads
    can never be justified, so linearizable programs are wrongly
    rejected.  Caught by the verdict-engine cross-check
    (:func:`check_verdict_engines`) -- deterministically by the
    ``canary_flag`` program."""
    from ..verify import reachability as R

    original = R._DROP_MONITOR_TRANSITION
    R._DROP_MONITOR_TRANSITION = True
    try:
        yield
    finally:
        R._DROP_MONITOR_TRANSITION = original


@contextmanager
def _mutate_skip_violation_state() -> Iterator[None]:
    """The reachability search treats the empty monitor set as a dead
    end instead of a violation: the engine can never answer FALSE, so
    non-linearizable programs are wrongly accepted.  Caught by the
    verdict-engine cross-check -- deterministically by the
    ``canary_blink`` program."""
    from ..verify import reachability as R

    original = R._SKIP_VIOLATION_STATE
    R._SKIP_VIOLATION_STATE = True
    try:
        yield
    finally:
        R._SKIP_VIOLATION_STATE = original


@contextmanager
def _mutate_onthefly_skip_frontier_check() -> Iterator[None]:
    """The fused streaming search skips violations whose destination
    implementation state has not been expanded yet -- the tempting
    "frontier states are not real yet" bug, which silently converts
    shallow FALSE verdicts into TRUE (a violation found on a freshly
    discovered state is exactly the early exit the fusion exists for).
    Caught by the fused-vs-classic cross-check
    (:func:`onthefly_disagreements`) -- deterministically by the
    ``canary_mark`` program."""
    from ..verify import reachability as R

    original = R._SKIP_FRONTIER_CHECK
    R._SKIP_FRONTIER_CHECK = True
    try:
        yield
    finally:
        R._SKIP_FRONTIER_CHECK = original


@contextmanager
def _mutate_step_cache_ignore_read_value() -> Iterator[None]:
    """The step cache keys a ``ReadField`` step by the thread's record
    alone, without the value the field holds, so a thread is served the
    step it took where the field held something else.  Random programs
    read no node fields; caught by the step-cache check
    (:func:`check_step_cache`) on the registry canaries."""
    from ..lang import client as C

    original = C.ExpansionContext._footprint

    def buggy(self, record):
        reads = original(self, record)
        return (C.READS_NOTHING,) if reads[0] == C.READS_FIELD else reads

    C.ExpansionContext._footprint = buggy
    try:
        yield
    finally:
        C.ExpansionContext._footprint = original


@contextmanager
def _mutate_canonical_memo_ignores_roots() -> Iterator[None]:
    """The renumbering memo keys a full renumbering by the heap alone,
    not by the references its roots hold, so a successor whose roots
    reach the same heap in another order is served the numbering (and
    the renumbered heap) of the first.  Random programs allocate no
    nodes; caught by the step-cache check (:func:`check_step_cache`) on
    the registry canaries."""
    from ..lang import state as S

    original = S._references

    def buggy(values, found):
        return found

    S._references = buggy
    try:
        yield
    finally:
        S._references = original


MUTATIONS: Dict[str, Callable[[], object]] = {
    "drop-monitor-transition": _mutate_drop_monitor_transition,
    "skip-violation-state": _mutate_skip_violation_state,
    "onthefly-skip-frontier-check": _mutate_onthefly_skip_frontier_check,
    "drop-budget-checks": _mutate_drop_budget_checks,
    "skip-divergence-mark": _mutate_skip_divergence_mark,
    "splitter-drop-smaller-half": _mutate_splitter_drop_smaller_half,
    "splitter-skip-dirty-preds": _mutate_splitter_skip_dirty_preds,
    "truncate-tau-closure": _mutate_truncate_tau_closure,
    "reduce-ignore-divergence": _mutate_reduce_ignore_divergence,
    "explain-skip-inert-prefix": _mutate_explain_skip_inert_prefix,
    "step-cache-ignore-read-value": _mutate_step_cache_ignore_read_value,
    "canonical-memo-ignores-roots": _mutate_canonical_memo_ignores_roots,
}


# ----------------------------------------------------------------------
# the fuzz loop
# ----------------------------------------------------------------------

@dataclass
class FuzzCase:
    """One shrunk failing instance, as written to the corpus."""

    name: str
    disagreement: Disagreement
    lts: FrozenLTS
    path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of a fuzzing run."""

    seed: int
    instances: int = 0
    checks: int = 0
    skipped: int = 0
    exhausted: int = 0
    elapsed: float = 0.0
    disagreements: List[Disagreement] = field(default_factory=list)
    cases: List[FuzzCase] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} instances={self.instances} "
            f"checks={self.checks} skipped={self.skipped} "
            f"exhausted={self.exhausted} "
            f"disagreements={len(self.disagreements)} "
            f"({self.elapsed:.1f}s)"
        ]
        for case in self.cases:
            where = f" -> {case.path}" if case.path else ""
            lines.append(f"  {case.disagreement.render()}{where}")
        for extra in self.disagreements[len(self.cases):]:
            lines.append(f"  {extra.render()}")
        return "\n".join(lines)


def _generate_instance(
    rng: random.Random, index: int, max_states: int,
    tau_density: float, use_programs: bool,
) -> Tuple[Optional[FrozenLTS], Optional[Tuple]]:
    """Instance mix: mostly raw LTSs, some tau-cycle-heavy, some programs.

    Returns ``(lts, context)``; ``context`` is ``(program, workload,
    seed)`` when the instance came from a program draw (so the verdict-
    engine cross-check can run on it), else ``None``.
    """
    if use_programs and index % 6 == 5:
        program_seed = rng.randrange(2**32)
        program, workload = generators.random_program(program_seed)
        try:
            lts = generators.explore_random_program(
                program_seed, max_states=2000
            )
        except StateExplosion:
            return None, None
        return lts, (program, workload, program_seed)
    tau_cycles = 1 if index % 4 == 3 else 0
    return generators.random_lts(
        rng.randrange(2**32),
        num_states=rng.randint(1, max_states),
        num_transitions=rng.randint(0, 2 * max_states),
        num_labels=rng.randint(1, 3),
        tau_density=tau_density,
        deterministic=(index % 10 == 9),
        tau_cycles=tau_cycles,
    ), None


def _shrink_disagreement(disagreement: Disagreement) -> FrozenLTS:
    """Shrink the instance while the same check keeps failing."""
    lts = disagreement.lts
    assert lts is not None
    if disagreement.kind == "step-cache":
        # A property of the program, not of its system: keep it whole.
        return lts

    def still_fails(candidate: FrozenLTS) -> bool:
        if disagreement.kind == "verdict":
            if disagreement.replay is None:
                return False
            return bool(disagreement.replay(candidate))
        if disagreement.kind == "relation":
            return bool(check_equivalences(candidate, [disagreement.name]))
        if disagreement.kind == "reduction":
            return bool(check_reduction(candidate, [disagreement.name]))
        if disagreement.kind == "explanation":
            return bool(check_explanations(candidate, [disagreement.name]))
        if disagreement.kind == "seeded":
            return bool(check_seeded_refinement(candidate, [disagreement.name]))
        if disagreement.kind == "budget":
            return bool(check_budget_governance(candidate))
        if disagreement.kind == "law":
            failed = laws.check_laws(candidate)
            return any(name == disagreement.name for name, _ in failed)
        return bool(check_instance(candidate, include_laws=False))

    try:
        return shrink_lts(lts, still_fails)
    except Exception:
        return lts


def _write_case(case: FuzzCase, corpus_dir: str) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    base = os.path.join(corpus_dir, case.name)
    write_aut(case.lts, base + ".aut")
    payload = {
        "schema": "repro.fuzz-case/v1",
        "kind": case.disagreement.kind,
        "name": case.disagreement.name,
        "detail": case.disagreement.detail,
        "origin": "fuzz",
    }
    if case.disagreement.meta:
        payload.update(case.disagreement.meta)
    with open(base + ".meta.json", "w") as handle:
        json.dump(
            payload,
            handle,
            indent=2,
        )
        handle.write("\n")
    return base + ".aut"


def run_fuzz(
    seed: int = 0,
    n: int = 200,
    max_states: int = 7,
    tau_density: float = 0.35,
    time_budget: Optional[float] = None,
    instance_deadline: Optional[float] = None,
    corpus_dir: Optional[str] = None,
    use_programs: bool = True,
    mutate: Optional[str] = None,
    oracle_state_limit: int = 40,
    stop_after: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``n`` differential instances; see the module docstring.

    ``mutate`` names an entry of :data:`MUTATIONS` to inject into the
    engine for the duration of the run.  ``stop_after`` ends the run
    early once that many disagreements were found (the default for
    mutation runs is 1 -- finding any bug is enough).  ``time_budget``
    (seconds) caps the wall-clock time of the whole run and is enforced
    *inside* each instance, not just between them: the per-instance
    :class:`~repro.util.budget.RunBudget` is capped by whatever of the
    run budget remains, so one pathological instance cannot blow the
    deadline.  ``instance_deadline`` additionally caps each single
    instance; instances cut short either way are counted under
    ``exhausted`` in the report rather than failing the run.
    """
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {mutate!r}; choose from {sorted(MUTATIONS)}"
        )
    if stop_after is None and mutate is not None:
        stop_after = 1
    rng = random.Random(seed)
    report = FuzzReport(seed=seed)
    started = time.monotonic()

    def instance_budget() -> Optional[RunBudget]:
        limits = []
        if time_budget is not None:
            limits.append(time_budget - (time.monotonic() - started))
        if instance_deadline is not None:
            limits.append(instance_deadline)
        if not limits:
            return None
        return RunBudget(deadline_seconds=max(0.0, min(limits)))

    def handle_found(found: List[Disagreement], case_name: str) -> None:
        report.disagreements.extend(found)
        for disagreement in found[:1]:
            shrunk = _shrink_disagreement(disagreement)
            case = FuzzCase(
                name=case_name,
                disagreement=disagreement,
                lts=shrunk,
            )
            if corpus_dir is not None and mutate is None:
                case.path = _write_case(case, corpus_dir)
            report.cases.append(case)
        if found and progress is not None:
            progress(found[0].render())

    def over_time() -> bool:
        return (
            time_budget is not None
            and time.monotonic() - started > time_budget
        )

    def done() -> bool:
        return (
            stop_after is not None
            and len(report.disagreements) >= stop_after
        )

    def body() -> None:
        from ..lang import ClientConfig, atomic_spec
        from ..objects import get as get_benchmark

        if use_programs:
            # The deterministic canaries run first: they separate the
            # verdict engines under each reachability mutation without
            # relying on the random program mix to stumble on a case.
            for cname, cprogram, cworkload in _canary_programs():
                if over_time():
                    return
                report.instances += 1
                try:
                    found = check_verdict_engines(
                        cprogram, atomic_spec(cprogram),
                        workload=cworkload, budget=instance_budget(),
                        meta={"program": cprogram.name,
                              "workload": cworkload},
                    )
                except BudgetExhausted:
                    report.exhausted += 1
                    continue
                report.checks += 1
                if found:
                    handle_found(found, f"fuzz_seed{seed}_{cname}")
                if done():
                    return
            # Registry objects read fields, CAS, allocate and free, which
            # random programs never do.
            for key in STEP_CACHE_CANARIES:
                if over_time():
                    return
                report.instances += 1
                bench = get_benchmark(key)
                try:
                    found = check_step_cache(
                        bench.build(2),
                        ClientConfig(2, 1, bench.default_workload()),
                        budget=instance_budget(),
                        meta={"program": key, "threads": 2, "ops": 1},
                    )
                except BudgetExhausted:
                    report.exhausted += 1
                    continue
                report.checks += 1
                if found:
                    handle_found(found, f"fuzz_seed{seed}_step_cache_{key}")
                if done():
                    return
        for index in range(n):
            if over_time():
                break
            lts, context = _generate_instance(
                rng, index, max_states, tau_density, use_programs
            )
            if lts is None:
                report.skipped += 1
                continue
            report.instances += 1
            try:
                found = check_instance(
                    lts, oracle_state_limit=oracle_state_limit,
                    budget=instance_budget(),
                )
            except BudgetExhausted:
                report.exhausted += 1
                continue
            report.checks += (
                len(ENGINE_PARTITIONS) + len(EXPLAINED_RELATIONS)
                + len(REDUCTION_RELATIONS) + len(SEEDED_RELATIONS)
                + len(laws.ALL_LAWS) + 2
            )
            if found:
                handle_found(found, f"fuzz_seed{seed}_case{index}")
            if context is not None:
                program, workload, program_seed = context
                meta = {"program_seed": program_seed, "workload": workload}
                program_checks = (
                    ("verdict", lambda budget: check_verdict_engines(
                        program, atomic_spec(program), workload=workload,
                        budget=budget, meta=meta,
                    )),
                    ("step_cache", lambda budget: check_step_cache(
                        program, ClientConfig(2, 1, workload, max_states=2000),
                        budget=budget, meta=meta,
                    )),
                )
                for suffix, check in program_checks:
                    if done():
                        break
                    try:
                        found = check(instance_budget())
                    except BudgetExhausted:
                        report.exhausted += 1
                        continue
                    report.checks += 1
                    if found:
                        handle_found(
                            found, f"fuzz_seed{seed}_case{index}_{suffix}"
                        )
            if done():
                break

    if mutate is not None:
        with MUTATIONS[mutate]():
            body()
    else:
        body()
    report.elapsed = time.monotonic() - started
    return report
