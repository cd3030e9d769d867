"""Most-general client: object programs -> labelled transition systems.

The object's behaviour is generated by composing ``k`` threads that
repeatedly invoke arbitrary methods with arbitrary parameters (the
"most general clients" of Section II.B), bounded by an operation budget
per thread (the paper's approach (2) in Section VI.B: the original
algorithms do not handle bounded containers, so the operation count is
bounded instead of the object size).

Visible actions are ``("call", t, m, args)`` and ``("ret", t, m, value)``
with 1-based thread ids as in Definition 2.1; every other step is tau.
Internal transitions carry a diagnostic annotation ``"t<i>.<line>"``.

State-space reductions applied here (documented in DESIGN.md):

* canonical heap renaming + garbage collection after every step,
* fusion of deterministic, purely thread-local instructions
  (assignments, branches, jumps) into the preceding step -- such steps
  are tau-confluent, so fusing them preserves divergence-sensitive
  branching bisimilarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.lts import TAU, FrozenLTS, LTSBuilder, _same_content
from ..util.budget import REASON_STATES, BudgetExhausted, Exhaustion

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats
from . import ops as O
from .checkpoint import Checkpoint, CheckpointSink, fingerprint
from .ops import evaluate
from .program import Method, ObjectProgram
from .semantics import execute
from .state import (
    ModelError,
    Renumberings,
    RootRefs,
    Scans,
    StateKey,
    canonicalize,
    canonicalize_successor,
    renumber,
    root_counts,
)
from .values import Ref

#: Maximum chain of fused local steps (guards against local infinite
#: loops, which then surface as explicit tau-cycles instead).
FUSION_FUEL = 256

#: Default state cap applied when ``ClientConfig.max_states`` is left at
#: ``None``: a typo'd workload hits a structured :class:`StateExplosion`
#: instead of OOM-ing the box.  Pass ``max_states=0`` to opt out.
DEFAULT_MAX_STATES = 1_000_000

Workload = Sequence[Tuple[str, Tuple[Any, ...]]]


class StateExplosion(BudgetExhausted):
    """Raised when exploration exceeds the configured state cap.

    A :class:`repro.util.budget.BudgetExhausted` subclass (reason
    ``"states"``), so budget-aware callers catch the whole taxonomy with
    one ``except BudgetExhausted`` while older callers that expect this
    specific class keep working.
    """

    def __init__(self, message: str, phase: str = "explore", **progress: int):
        snapshot = {k: v for k, v in progress.items() if v is not None}
        Exception.__init__(self, message)
        self.exhaustion = Exhaustion(
            reason=REASON_STATES, phase=phase, limit=message, progress=snapshot,
        )


@dataclass
class ClientConfig:
    """Exploration parameters.

    ``workload`` lists every ``(method, args)`` pair an idle thread may
    invoke; ``ops_per_thread`` bounds how many invocations each thread
    performs -- an int for a uniform bound, or one int per thread for
    asymmetric budgets (used e.g. to reproduce Fig. 6's scenario);
    ``max_states`` aborts runaway explorations with a structured
    :class:`StateExplosion`.  ``None`` (the default) means the
    documented safety net :data:`DEFAULT_MAX_STATES`; ``0`` explicitly
    opts out of any cap.
    """

    num_threads: int = 2
    ops_per_thread: Any = 2
    workload: Workload = field(default_factory=list)
    max_states: Optional[int] = None
    #: Ablation switches for the two state-space reductions; disabling
    #: them yields a (bigger) branching-bisimilar system -- asserted by
    #: the ablation bench.
    canonicalize_heap: bool = True
    fuse_local_steps: bool = True

    def effective_max_states(self) -> Optional[int]:
        """The state cap actually enforced (``None`` = unbounded)."""
        if self.max_states is None:
            return DEFAULT_MAX_STATES
        if self.max_states <= 0:
            return None
        return self.max_states

    def budgets(self) -> Tuple[int, ...]:
        if isinstance(self.ops_per_thread, int):
            return tuple(self.ops_per_thread for _ in range(self.num_threads))
        budgets = tuple(self.ops_per_thread)
        if len(budgets) != self.num_threads:
            raise ValueError("one budget per thread required")
        return budgets


IDLE = (-1, -1, ())

#: Sentinel pc of a thread whose atomic block decided a return value;
#: the visible return action is the thread's next (separate) step.
PENDING_RETURN = -2

#: One successor of a state: ``(action_label, destination_key, annotation)``.
Edge = Tuple[Any, StateKey, Optional[str]]


def _settle(
    program: ObjectProgram,
    method: Method,
    g: Tuple[Any, ...],
    heap,
    env: Dict[str, Any],
    pc: int,
) -> Tuple[Dict[str, Any], int]:
    """Fuse a run of deterministic local instructions (see module doc).

    Local instructions cannot touch ``g``/``heap``; execution stops at
    the first shared/visible instruction or when the fuel runs out.
    """
    ops = method.ops
    fuel = FUSION_FUEL
    while pc < len(ops) and ops[pc].local_only and fuel > 0:
        outcomes = execute(program, ops[pc], g, heap, env)
        _kind, _g, _h, env, target = outcomes[0]
        pc = pc + 1 if target < 0 else target
        fuel -= 1
    return env, pc


def _check_pc(method: Method, pc: int) -> None:
    if pc >= len(method.ops):
        raise ModelError(
            f"method {method.name!r} fell off the end (body must end in Return)"
        )


#: One thread step in delta form: ``(label, globals, heap, record,
#: annotation)``, where ``None`` globals or heap mean "unchanged: take
#: them from the state being expanded".
Step = Tuple[Any, Optional[Tuple[Any, ...]], Any, Tuple[Any, ...], Optional[str]]

#: The read footprint of a thread's next instruction: what of the shared
#: state its step depends on, hence what keys it in the step cache.
READS_NOTHING, READS_GLOBALS, READS_HEAP, READS_FIELD, READS_ALL = range(5)

#: Footprint per instruction type, matched exactly as ``execute``
#: dispatches; a type missing here (``AtomicBlock``, or one the rule
#: does not know) reads everything.  Every instruction listed leaves
#: what it does not read untouched, so a step keyed without the globals
#: (or the heap) has no globals (or heap) delta.
_READS = {
    O.LocalAssign: READS_NOTHING,
    O.Branch: READS_NOTHING,
    O.Jump: READS_NOTHING,
    O.Assume: READS_NOTHING,
    O.Return: READS_NOTHING,
    O.ReadGlobal: READS_GLOBALS,
    O.WriteGlobal: READS_GLOBALS,
    O.CasGlobal: READS_GLOBALS,
    O.FetchAddGlobal: READS_GLOBALS,
    O.Lock: READS_GLOBALS,
    O.Unlock: READS_GLOBALS,
    O.WriteField: READS_HEAP,
    O.CasField: READS_HEAP,
    O.SwapField: READS_HEAP,
    O.Alloc: READS_HEAP,
    O.Free: READS_HEAP,
    O.LockField: READS_HEAP,
    O.UnlockField: READS_HEAP,
    O.ReadField: READS_FIELD,
}


class ExpansionContext:
    """Per-state successor generation of an object program, shared by
    :class:`StreamingExplorer` and the :mod:`repro.parallel` workers.

    :meth:`expand` computes the ordered successor edges of one state key
    -- exactly the edges (and exactly the order) the serial loop body
    produces -- without touching any interning table, so the same
    expansion can run in a worker process and be replayed
    deterministically by the supervisor's merge.

    As an explorer's context it also names the budget ``phase``
    (``"explore"``), the state cap (:meth:`ClientConfig.effective_max_states`)
    and the checkpoint :meth:`fingerprint`;
    :class:`repro.lang.spec.SpecContext` supplies the same for a
    specification.

    Three per-run caches make an expansion pay only for what a step
    changed; none changes a single edge:

    * each thread's steps are a pure function of its record and of what
      its next instruction reads (:meth:`_footprint`): nothing shared,
      the globals, the heap, or the one node field a ``ReadField``
      reads.  They are computed once per distinct ``(tid, record,
      footprint)`` and kept in delta form (:data:`Step`);
      :attr:`thread_steps` counts the computations;
    * a successor whose numbering moves is renumbered once per heap
      object and root reference lists
      (:func:`~repro.lang.state.renumber`); :attr:`renumberings` counts
      the computations;
    * globals, heaps, thread records and field values are hash-consed,
      type-exactly (:func:`~repro.core.lts._same_content`): an
      ``==``-twin that differs only in ``False``/``0`` flavour is never
      served the other's steps (``Lock`` tests ``is not False``) -- it
      is expanded without the cache.  Renumbered parts are hash-consed
      too, so every successor is built from the same objects, which
      :func:`~repro.lang.state.canonicalize_successor` and the state
      table (:meth:`~repro.core.lts.LTSBuilder.add_edges`) recognize by
      identity.

    The caches hold no reference back to the context, so it is freed as
    soon as its explorer is, without waiting for a garbage collection.
    """

    __slots__ = (
        "program", "config", "name", "max_states", "settle",
        "thread_steps", "_reps", "_rep_ids", "_steps", "_footprints",
        "_scans", "_refs", "_renumberings",
    )

    phase = "explore"

    def __init__(self, program: ObjectProgram, config: ClientConfig) -> None:
        if not config.workload:
            raise ModelError("empty workload: nothing for the client to invoke")
        for mname, args in config.workload:
            program.method(mname)  # validate early
            if not isinstance(args, tuple):
                raise ModelError(f"workload args for {mname!r} must be a tuple")

        if config.fuse_local_steps:
            settle = _settle
        else:
            def settle(program, method, g, heap, env, pc):
                return env, pc

        self.program = program
        self.config = config
        self.name = program.name
        self.max_states = config.effective_max_states()
        self.settle = settle
        #: ``==``-class -> its first-seen (representative) object, and
        #: the ids of those representatives (kept alive by ``_reps``).
        self._reps: Dict[Any, Any] = {}
        self._rep_ids: set = set()
        #: Thread steps computed so far (cache misses and twins).
        self.thread_steps = 0
        #: ``(tid, id(record), ids of the footprint's representatives)``
        #: -> that thread's steps.
        self._steps: Dict[Tuple[int, ...], List[Step]] = {}
        #: ``id(record)`` of a representative -> its :meth:`_footprint`.
        self._footprints: Dict[int, Tuple[int, ...]] = {}
        self._scans: Scans = {}
        self._refs: RootRefs = {}
        self._renumberings: Renumberings = {}

    def initial_key(self) -> StateKey:
        init_threads = tuple(
            IDLE + (budget_,) for budget_ in self.config.budgets()
        )
        key = (self.program.initial_globals(), self.program.initial_heap,
               init_threads)
        return canonicalize(*key) if self.config.canonicalize_heap else key

    def fingerprint(self) -> Dict[str, Any]:
        """The checkpoint guard of this run (:func:`~repro.lang.checkpoint.fingerprint`)."""
        return fingerprint(self.program, self.config)

    @property
    def renumberings(self) -> int:
        """Full renumberings computed so far (renumbering memo misses)."""
        return len(self._renumberings)

    def _renumber(self, globals_, heap, threads) -> StateKey:
        """:func:`~repro.lang.state.renumber` over this run's memo."""
        return renumber(
            globals_, heap, threads, self._refs, self._renumberings, self._share
        )

    def _share(self, value: Any) -> Any:
        """The hash-consed representative of ``value``.

        A type twin of an earlier value (``==`` to it, not
        :func:`~repro.core.lts._same_content`) stays itself and never
        becomes a representative, so it never keys the step cache.
        A renumbered record or globals tuple is mostly made of its
        representative's objects; that is recognized inline, as the
        state table does (:meth:`~repro.core.lts.LTSBuilder.add_edges`),
        before the recursive comparison.
        """
        rep_ids = self._rep_ids
        if id(value) in rep_ids:
            return value
        rep = self._reps.setdefault(value, value)
        if rep is value:
            rep_ids.add(id(value))
            return value
        if type(value) is tuple and type(rep) is tuple:
            # ``rep == value``: equal-length parts.
            for old, new in zip(rep, value):
                if old is not new and (
                    type(old) is not tuple or type(new) is not tuple
                    or not all(map(is_, old, new))
                ):
                    break
            else:
                return rep
        return rep if _same_content(rep, value) else value

    def _footprint(self, record: Tuple[Any, ...]) -> Tuple[int, ...]:
        """What the step of a thread in ``record`` reads of the shared state.

        ``(READS_FIELD, index, position)`` names the node field a
        ``ReadField`` reads: its pointer is a function of the record's
        locals alone.  A pointer that is no :class:`~repro.lang.values.Ref`,
        or an unknown field, reads everything (the step raises).
        """
        mi, pc, packed, _budget = record
        if mi < 0 or pc == PENDING_RETURN:
            return (READS_NOTHING,)
        method = self.program.methods[mi]
        op = method.ops[pc]
        reads = _READS.get(type(op), READS_ALL)
        if reads != READS_FIELD:
            return (reads,)
        ptr = evaluate(op.ptr, method.unpack_env(packed))
        position = self.program.field_index.get(op.fieldname)
        if type(ptr) is not Ref or position is None:
            return (READS_ALL,)
        return (READS_FIELD, ptr[1], position)

    def _thread_steps(
        self, tid: int, g: Tuple[Any, ...], heap: Any, record: Tuple[Any, ...]
    ) -> List[Step]:
        """Delta-form steps of thread ``tid`` in ``(g, heap)``, in edge order."""
        self.thread_steps += 1
        program, settle, share = self.program, self.settle, self._share
        mi, pc, packed, ops_budget = record
        if pc == PENDING_RETURN:
            label = ("ret", tid + 1, program.methods[mi].name, packed[0])
            return [(label, None, None, share(IDLE + (ops_budget,)), None)]
        steps: List[Step] = []
        if mi < 0:
            if ops_budget <= 0:
                return steps
            for mname, args in self.config.workload:
                method = program.method(mname)
                env = method.initial_env(tid, args)
                env, entry = settle(program, method, g, heap, env, 0)
                _check_pc(method, entry)
                new_record = (
                    program.method_index[mname],
                    entry,
                    method.pack_env(env),
                    ops_budget - 1,
                )
                steps.append(
                    (("call", tid + 1, mname, args), None, None,
                     share(new_record), None)
                )
            return steps

        method = program.methods[mi]
        op = method.ops[pc]
        env = method.unpack_env(packed)
        annotation = f"t{tid + 1}.{op.line}" if op.line else None
        for outcome in execute(program, op, g, heap, env):
            if outcome[0] == "ret":
                _kind, ng, nheap, value = outcome
                label = ("ret", tid + 1, method.name, value)
                new_record = IDLE + (ops_budget,)
                note = None
            elif outcome[0] == "retpend":
                # Return decided inside an atomic block: the visible
                # return action follows as a separate step.
                _kind, ng, nheap, value = outcome
                label = TAU
                new_record = (mi, PENDING_RETURN, (value,), ops_budget)
                note = annotation
            else:
                _kind, ng, nheap, nenv, target = outcome
                npc = pc + 1 if target < 0 else target
                nenv, npc = settle(program, method, ng, nheap, nenv, npc)
                _check_pc(method, npc)
                label = TAU
                new_record = (mi, npc, method.pack_env(nenv), ops_budget)
                note = annotation
            ng, nheap = share(ng), share(nheap)
            steps.append((
                label,
                None if ng is g else ng,
                None if nheap is heap else nheap,
                share(new_record),
                note,
            ))
        return steps

    def expand(self, key: StateKey) -> List[Edge]:
        """Ordered successor edges of ``key`` (see class docstring).

        ``key`` must be a state of this run (:meth:`initial_key` or a
        destination of an earlier expansion), hence canonical when the
        heap is canonicalized.
        """
        share, rep_ids = self._share, self._rep_ids
        g, heap, threads = key
        g_id, heap_id = id(g), id(heap)
        if g_id not in rep_ids:
            g = share(g)
            g_id = id(g) if id(g) in rep_ids else None
        if heap_id not in rep_ids:
            heap = share(heap)
            heap_id = id(heap) if id(heap) in rep_ids else None
        for record in threads:
            if id(record) not in rep_ids:
                threads = tuple([share(part) for part in threads])
                break
        canonical = self.config.canonicalize_heap
        source = (g, heap, threads)
        scans, full = self._scans, self._renumber
        counts = root_counts(source, scans) if canonical else ()
        steps_of, footprints = self._steps, self._footprints
        edges: List[Edge] = []
        for tid, record in enumerate(threads):
            step_key = None
            rid = id(record)
            if rid in rep_ids:
                reads = footprints.get(rid)
                if reads is None:
                    reads = footprints[rid] = self._footprint(record)
                kind = reads[0]
                if kind == READS_NOTHING:
                    step_key = (tid, rid)
                elif kind == READS_GLOBALS:
                    if g_id is not None:
                        step_key = (tid, rid, g_id)
                elif kind == READS_HEAP:
                    if heap_id is not None:
                        step_key = (tid, rid, heap_id)
                elif kind == READS_FIELD and reads[1] < len(heap):
                    value = heap[reads[1]][reads[2]]
                    if id(value) not in rep_ids:
                        value = share(value)
                    if id(value) in rep_ids:
                        step_key = (tid, rid, id(value))
                elif g_id is not None and heap_id is not None:
                    step_key = (tid, rid, g_id, heap_id)
            if step_key is None:
                steps = self._thread_steps(tid, g, heap, record)
            else:
                steps = steps_of.get(step_key)
                if steps is None:
                    steps = steps_of[step_key] = self._thread_steps(
                        tid, g, heap, record
                    )
            head, tail = threads[:tid], threads[tid + 1:]
            if canonical:
                entered, left = counts[tid], counts[tid + 1]
            for label, ng, nheap, new_record, annotation in steps:
                new_threads = head + (new_record,) + tail
                if ng is None and nheap is None:
                    dst = (g, heap, new_threads)
                    if canonical:
                        # Only the mover's locals changed: if their
                        # memoized scan ends where the source's did, this
                        # is canonicalize_successor's identity path.
                        scanned = scans.get((id(new_record[2]), entered))
                        if scanned is None or scanned[1] != left:
                            dst = canonicalize_successor(
                                source, counts, g, heap, new_threads, scans,
                                full,
                            )
                else:
                    ng = g if ng is None else ng
                    nheap = heap if nheap is None else nheap
                    if canonical:
                        dst = canonicalize_successor(
                            source, counts, ng, nheap, new_threads, scans,
                            full,
                        )
                    else:
                        dst = (ng, nheap, new_threads)
                edges.append((label, dst, annotation))
        return edges


#: One streamed transition event: ``(src_id, action_label, dst_id)``.
Event = Tuple[int, Any, int]


class StreamingExplorer:
    """Bounded exploration as an incremental, resumable stream.

    The explorer owns the one DFS loop of the package: the frontier,
    the interning :class:`~repro.core.lts.LTSBuilder`, the safe point
    and checkpoints.  Its ``context`` owns everything that depends on
    the system being generated: the initial key, the ordered successors
    of a key (:meth:`ExpansionContext.expand`), the budget ``phase``,
    the ``max_states`` cap (``None`` = uncapped), the run's checkpoint
    ``fingerprint()`` and the ``name`` its cap message reports.  An
    :class:`ExpansionContext` generates an object system
    (:func:`explore`, the on-the-fly lane, the service daemon); a
    :class:`~repro.lang.spec.SpecContext` generates a specification
    (:func:`~repro.lang.spec.spec_lts`).

    Contract (documented in DESIGN.md):

    * **Event order** -- :meth:`expand_next` pops the DFS frontier, so
      every drain of the same context, interrupted and resumed or not,
      interns states and adds transitions in the same order; :meth:`run`
      is the drain-the-stream form.
    * **Interning stability** -- state ids are assigned by the shared
      :class:`~repro.core.lts.LTSBuilder` on first sight and never
      change; every event refers to states by those stable ids.
    * **Freeze semantics** -- :meth:`freeze` may be called at any point
      (the CSR build is non-destructive) and returns the
      :class:`~repro.core.lts.FrozenLTS` of everything streamed so far;
      after a full drain it is the system :meth:`run` returns.
    * **Safe points** -- budget checks (the context's phase), the
      ``max_states`` cap, and checkpoint writes all happen at the top of
      :meth:`expand_next`, before a key is popped, so a
      :class:`~repro.lang.checkpoint.Checkpoint` written mid-stream
      resumes bit-identically.

    ``successors_of`` additionally exposes *demand-driven* expansion for
    fused product searches that follow their own search order instead of
    the frontier order; pass ``cache_edges=True`` to memoize per-state
    edge lists for it.  Demand expansion interleaves with the frontier
    discipline (an expanded state is skipped when later popped), but a
    run that mixes demand order with checkpointing no longer guarantees
    classic interning order, so fused searches do not checkpoint.
    """

    def __init__(
        self,
        context: Any,
        budget: Optional["RunBudget"] = None,
        checkpoint: Optional[CheckpointSink] = None,
        resume: Optional[Checkpoint] = None,
        cache_edges: bool = False,
    ) -> None:
        self.context = context
        self.budget = budget
        self.checkpoint = checkpoint

        self._run_id = context.fingerprint() if (checkpoint or resume) else None
        if resume is not None:
            resume.validate(self._run_id)
            self.builder = resume.builder
            #: Frontier as interned state ids, bottom of the DFS first.
            self._stack: List[int] = list(resume.frontier)
            # Everything interned but not on the frontier is expanded.
            frontier_ids = set(resume.frontier)
            self._expanded = {
                sid
                for sid in range(self.builder.lts.num_states)
                if sid not in frontier_ids
            }
        else:
            self.builder = LTSBuilder()
            self.builder.set_init(context.initial_key())
            self._stack = [self.builder.lts.init]
            self._expanded: set = set()

        #: States whose successors this explorer computed (resumed runs
        #: do not re-count work done before the checkpoint).
        self.states_expanded = 0
        self._edges: Optional[Dict[int, List[Tuple[int, Any, int]]]] = (
            {} if cache_edges else None
        )

    # -- stream state -------------------------------------------------

    @property
    def init_id(self) -> int:
        return self.builder.lts.init

    @property
    def num_states(self) -> int:
        return self.builder.lts.num_states

    @property
    def num_transitions(self) -> int:
        return self.builder.lts.num_transitions

    @property
    def done(self) -> bool:
        """No unexpanded frontier remains (the stream is drained)."""
        return all(sid in self._expanded for sid in self._stack)

    def is_expanded(self, sid: int) -> bool:
        """Whether ``sid``'s successors have already been streamed."""
        return sid in self._expanded

    def snapshot(self) -> Checkpoint:
        """A resumable checkpoint of the current safe point."""
        if self._run_id is None:
            self._run_id = self.context.fingerprint()
        return Checkpoint(
            fingerprint=self._run_id,
            builder=self.builder,
            frontier=list(self._stack),
        )

    def freeze(self) -> FrozenLTS:
        """CSR form of everything streamed so far (non-destructive)."""
        return self.builder.lts.freeze()

    # -- production ---------------------------------------------------

    def _safe_point(self) -> None:
        builder, context, budget = self.builder, self.context, self.budget
        try:
            if budget is not None and budget.armed:
                budget.check(
                    context.phase,
                    states=builder.lts.num_states,
                    transitions=builder.lts.num_transitions,
                    frontier=len(self._stack),
                )
            cap = context.max_states
            if cap is not None and builder.lts.num_states > cap:
                raise StateExplosion(
                    f"{context.name}: more than {cap} states",
                    phase=context.phase,
                    states=builder.lts.num_states,
                    transitions=builder.lts.num_transitions,
                    frontier=len(self._stack),
                )
        except BudgetExhausted:
            # Exhaustion only fires at a safe point, so the builder and
            # frontier are consistent: always leave a checkpoint behind.
            if self.checkpoint is not None:
                self.checkpoint.save(self.snapshot())
            raise
        if self.checkpoint is not None and self.checkpoint.due():
            self.checkpoint.save(self.snapshot())

    def _expand(self, sid: int, events: Optional[List[Event]]) -> None:
        """Intern the successors of ``sid`` and add its edges, in order.

        ``events``, when given, collects the ``(src_id, label, dst_id)``
        events :meth:`expand_next` returns; :meth:`drain` builds none.
        """
        builder = self.builder
        keys = builder.state_keys
        known = len(keys)
        edges = self.context.expand(keys[sid])
        dsts = builder.add_edges(sid, edges)
        self._stack.extend(range(known, len(keys)))
        if events is not None:
            events.extend([
                (sid, label, dst) for (label, _key, _ann), dst in zip(edges, dsts)
            ])
        if self._edges is not None:
            lookup = builder.lts.lookup_action
            self._edges[sid] = [
                (lookup(label), label, dst)
                for (label, _key, _ann), dst in zip(edges, dsts)
            ]
        self._expanded.add(sid)
        self.states_expanded += 1

    def _pop(self) -> Optional[int]:
        """The next unexpanded frontier state, after a safe point per pop;
        ``None`` when drained.

        The safe point is entered only when it can act: the budget is
        armed, a checkpoint sink is set, or the states exceed the cap.
        """
        stack, expanded = self._stack, self._expanded
        budget, checkpoint = self.budget, self.checkpoint
        cap, keys = self.context.max_states, self.builder.state_keys
        while stack:
            if (
                (budget is not None and budget.armed)
                or checkpoint is not None
                or (cap is not None and len(keys) > cap)
            ):
                self._safe_point()
            sid = stack.pop()
            if sid not in expanded:  # else expanded on demand via successors_of
                return sid
        return None

    def expand_next(self) -> Optional[List[Event]]:
        """Expand the next frontier state; ``None`` when drained.

        Returns the ordered ``(src_id, label, dst_id)`` events of one
        state expansion -- exactly the edges (and order) the classic
        loop body would have added for that state.
        """
        sid = self._pop()
        if sid is None:
            return None
        events: List[Event] = []
        self._expand(sid, events)
        return events

    def successors_of(self, sid: int) -> List[Tuple[int, Any, int]]:
        """Demand-driven ``(action_id, label, dst_id)`` edges of ``sid``.

        Expands ``sid`` immediately if the stream has not reached it yet
        (out of frontier order); requires ``cache_edges=True`` so
        repeated queries do not recompute the expansion.
        """
        if self._edges is None:
            raise ValueError("successors_of requires cache_edges=True")
        edges = self._edges.get(sid)
        if edges is not None:
            return edges
        if sid in self._expanded:  # pragma: no cover - defensive
            raise ValueError(f"state {sid} expanded before edge caching")
        self._safe_point()
        self._expand(sid, None)
        return self._edges[sid]

    def drain(self) -> None:
        """Consume the rest of the stream (classic exploration)."""
        pop, expand = self._pop, self._expand
        sid = pop()
        while sid is not None:
            expand(sid, None)
            sid = pop()

    def run(self, stats: Optional["Stats"] = None) -> FrozenLTS:
        """Drain the stream and return the frozen system.

        ``stats``, when given, times the run under a stage named after
        the context's phase and records the final state and transition
        counts; an :class:`ExpansionContext` also records the thread
        steps and the renumberings it computed (``thread_steps``,
        ``renumberings``).
        """
        if stats is None:
            self.drain()
            return self.freeze()
        with stats.stage(self.context.phase):
            self.drain()
            lts = self.freeze()
            stats.count("states", lts.num_states)
            stats.count("transitions", lts.num_transitions)
            if isinstance(self.context, ExpansionContext):
                stats.count("thread_steps", self.context.thread_steps)
                stats.count("renumberings", self.context.renumberings)
        return lts


def explore(
    program: ObjectProgram,
    config: ClientConfig,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
) -> FrozenLTS:
    """Generate the object system LTS under the most general client.

    Drains a :class:`StreamingExplorer` over the program's
    :class:`ExpansionContext` and returns the frozen system.

    ``stats``, when given, times the exploration under an ``explore``
    stage and records final state/transition counts.

    ``budget``, when given, is checked once per frontier pop (phase
    ``"explore"``); exhaustion raises the structured
    :class:`~repro.util.budget.BudgetExhausted` taxonomy.  ``checkpoint``
    periodically serializes the exploration state (and always does so
    when the budget or state cap fires, so an exhausted run can be
    resumed); ``resume`` continues from a previously saved
    :class:`~repro.lang.checkpoint.Checkpoint` and reproduces the exact
    LTS an uninterrupted run would have produced.
    """
    return StreamingExplorer(
        ExpansionContext(program, config),
        budget=budget, checkpoint=checkpoint, resume=resume,
    ).run(stats)


def maybe_parallel_explore(
    program: ObjectProgram,
    config: ClientConfig,
    workers: int = 0,
    fault_plan: Any = None,
    shard_states: Optional[int] = None,
    heartbeat_timeout: Optional[float] = None,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
) -> FrozenLTS:
    """Serial or sharded exploration behind one signature.

    ``workers >= 1`` builds a :mod:`repro.parallel` supervisor
    (``fault_plan`` may be a spec string or a ``FaultPlan``) and is the
    only case that imports that package; ``workers == 0`` is plain
    :func:`explore`.  ``repro explore --workers`` is its one CLI caller.
    """
    if not workers or workers < 1:
        return explore(
            program, config, stats=stats, budget=budget,
            checkpoint=checkpoint, resume=resume,
        )
    from ..parallel.supervisor import FaultPlan, ParallelConfig, parallel_explore

    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.parse(fault_plan)
    parallel = ParallelConfig(workers=workers, fault_plan=fault_plan)
    if shard_states is not None:
        parallel.shard_states = shard_states
    if heartbeat_timeout is not None:
        parallel.heartbeat_timeout = heartbeat_timeout
    return parallel_explore(
        program, config, parallel, stats=stats, budget=budget,
        checkpoint=checkpoint, resume=resume,
    )


def uniform_workload(
    methods_with_domains: Dict[str, Sequence[Tuple[Any, ...]]]
) -> List[Tuple[str, Tuple[Any, ...]]]:
    """Flatten per-method argument domains into a workload list."""
    out: List[Tuple[str, Tuple[Any, ...]]] = []
    for mname, domain in methods_with_domains.items():
        for args in domain:
            out.append((mname, tuple(args)))
    return out
