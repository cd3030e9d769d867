"""Linearizable specifications (Section II.C).

A specification turns each method body into a single atomic block over
a sequential abstract state: a method execution is exactly three steps
-- the call action, one internal tau applying the sequential semantics,
and the return action.  ``spec_lts`` generates the specification's LTS
under the same most-general client (and the same action labels) as the
implementation, which is what both the trace-refinement check
(Theorem 5.3) and the bisimulation comparisons (Table VII) require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.lts import TAU, FrozenLTS
from .checkpoint import Checkpoint, CheckpointSink, spec_fingerprint
from .client import StreamingExplorer, Workload
from .state import ModelError

if TYPE_CHECKING:  # pragma: no cover
    from ..util.budget import RunBudget
    from ..util.metrics import Stats
    from .program import ObjectProgram

#: A sequential method: ``(state, args) -> [(new_state, return_value), ...]``.
#: Multiple results model specification-level nondeterminism.
SpecMethod = Callable[[Any, Tuple[Any, ...]], List[Tuple[Any, Any]]]


@dataclass
class SpecObject:
    """A sequential object specification.

    ``initial`` must be hashable (tuples/frozensets for containers).
    """

    name: str
    initial: Hashable
    methods: Dict[str, SpecMethod] = field(default_factory=dict)

    def method(self, name: str) -> SpecMethod:
        try:
            return self.methods[name]
        except KeyError:
            raise ModelError(f"unknown spec method {name!r}") from None


# Thread phases.
_IDLE = 0
_PENDING = 1     # called, atomic block not yet executed
_DONE = 2        # atomic block executed, return pending


class SpecContext:
    """The expansion context of a specification under the most general
    client, for :class:`~repro.lang.client.StreamingExplorer`.

    A state key is ``(abstract_state, thread_records)``; a thread runs
    each method as three steps: the call, one atomic tau applying the
    sequential method (one edge per outcome), and the return.  The
    budget phase is ``"spec"``; ``max_states`` caps the states
    generated, and ``None`` or a cap ``<= 0`` leaves generation
    uncapped (as ``0`` does for :class:`~repro.lang.client.ClientConfig`).
    """

    phase = "spec"

    def __init__(
        self,
        spec: SpecObject,
        num_threads: int,
        ops_per_thread: Any,
        workload: Workload,
        max_states: Optional[int] = None,
    ) -> None:
        if not workload:
            raise ModelError("empty workload: nothing for the client to invoke")
        for mname, _args in workload:
            spec.method(mname)
        if isinstance(ops_per_thread, int):
            budgets = tuple(ops_per_thread for _ in range(num_threads))
        else:
            budgets = tuple(ops_per_thread)
            if len(budgets) != num_threads:
                raise ModelError("one budget per thread required")
        self.spec = spec
        self.name = spec.name
        self.num_threads = num_threads
        self.ops_per_thread = ops_per_thread
        self.workload = workload
        self.max_states = max_states if max_states and max_states > 0 else None
        self._budgets = budgets

    def initial_key(self) -> Tuple[Any, Tuple[Any, ...]]:
        return (
            self.spec.initial,
            tuple((_IDLE, None, None, None, budget) for budget in self._budgets),
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The checkpoint guard of this run (:func:`~repro.lang.checkpoint.spec_fingerprint`)."""
        return spec_fingerprint(
            self.spec, self.num_threads, self.ops_per_thread, self.workload
        )

    def expand(self, key: Tuple[Any, Tuple[Any, ...]]) -> List[Tuple[Any, Any, Optional[str]]]:
        """Ordered ``(label, destination_key, annotation)`` edges of ``key``."""
        abstract, threads = key
        edges: List[Tuple[Any, Any, Optional[str]]] = []
        for tid, (phase, mname, args, ret, ops_budget) in enumerate(threads):
            head, tail = threads[:tid], threads[tid + 1:]
            if phase == _IDLE:
                if ops_budget <= 0:
                    continue
                for wm, wargs in self.workload:
                    record = (_PENDING, wm, wargs, None, ops_budget - 1)
                    edges.append((
                        ("call", tid + 1, wm, wargs),
                        (abstract, head + (record,) + tail),
                        None,
                    ))
            elif phase == _PENDING:
                for new_abstract, value in self.spec.method(mname)(abstract, args):
                    record = (_DONE, mname, args, value, ops_budget)
                    edges.append((
                        TAU,
                        (new_abstract, head + (record,) + tail),
                        f"t{tid + 1}.atomic",
                    ))
            else:
                record = (_IDLE, None, None, None, ops_budget)
                edges.append((
                    ("ret", tid + 1, mname, ret),
                    (abstract, head + (record,) + tail),
                    None,
                ))
        return edges


def spec_lts(
    spec: SpecObject,
    num_threads: int,
    ops_per_thread: int,
    workload: Workload,
    max_states: Optional[int] = None,
    stats: Optional["Stats"] = None,
    budget: Optional["RunBudget"] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
) -> FrozenLTS:
    """The linearizable specification LTS under the most general client.

    Drains a :class:`~repro.lang.client.StreamingExplorer` over a
    :class:`SpecContext` and returns the frozen system.  ``stats``
    (optional) times the generation under a ``spec`` stage and records
    state/transition counts.  ``budget`` (optional) is checked once per
    frontier pop under phase ``"spec"``.  ``checkpoint`` / ``resume``
    mirror :func:`repro.lang.client.explore`: generation state is
    periodically serialized (guarded by :func:`spec_fingerprint`) and an
    interrupted generation resumed from a checkpoint reproduces the
    exact LTS an uninterrupted run would have produced.
    """
    return StreamingExplorer(
        SpecContext(spec, num_threads, ops_per_thread, workload, max_states),
        budget=budget, checkpoint=checkpoint, resume=resume,
    ).run(stats)


# ----------------------------------------------------------------------
# Sequential abstract data types used by the benchmark specifications
# ----------------------------------------------------------------------

def queue_spec(name: str = "queue-spec", empty_value: Any = None) -> SpecObject:
    """FIFO queue: ``enq(v)`` and ``deq() -> v | EMPTY``."""
    from .values import EMPTY

    empty = EMPTY if empty_value is None else empty_value

    def enq(state: Tuple[Any, ...], args: Tuple[Any, ...]):
        return [(state + (args[0],), None)]

    def deq(state: Tuple[Any, ...], args: Tuple[Any, ...]):
        if not state:
            return [(state, empty)]
        return [(state[1:], state[0])]

    return SpecObject(name=name, initial=(), methods={"enq": enq, "deq": deq})


def stack_spec(name: str = "stack-spec", empty_value: Any = None) -> SpecObject:
    """LIFO stack: ``push(v)`` and ``pop() -> v | EMPTY``."""
    from .values import EMPTY

    empty = EMPTY if empty_value is None else empty_value

    def push(state: Tuple[Any, ...], args: Tuple[Any, ...]):
        return [(state + (args[0],), None)]

    def pop(state: Tuple[Any, ...], args: Tuple[Any, ...]):
        if not state:
            return [(state, empty)]
        return [(state[:-1], state[-1])]

    return SpecObject(name=name, initial=(), methods={"push": push, "pop": pop})


def set_spec(name: str = "set-spec") -> SpecObject:
    """Set: ``add(v)``, ``remove(v)``, ``contains(v)`` -> bool."""

    def add(state: frozenset, args: Tuple[Any, ...]):
        value = args[0]
        if value in state:
            return [(state, False)]
        return [(state | {value}, True)]

    def remove(state: frozenset, args: Tuple[Any, ...]):
        value = args[0]
        if value not in state:
            return [(state, False)]
        return [(state - {value}, True)]

    def contains(state: frozenset, args: Tuple[Any, ...]):
        return [(state, args[0] in state)]

    return SpecObject(
        name=name,
        initial=frozenset(),
        methods={"add": add, "remove": remove, "contains": contains},
    )


def register_spec(initial: int = 0, name: str = "register-spec") -> SpecObject:
    """Register with the paper's NewCompareAndSet method (Fig. 3):
    returns the prior value; writes only when it equals ``exp``."""

    def new_cas(state: int, args: Tuple[Any, ...]):
        exp, new = args
        if state == exp:
            return [(new, state)]
        return [(state, state)]

    def read(state: int, args: Tuple[Any, ...]):
        return [(state, state)]

    return SpecObject(
        name=name, initial=initial, methods={"newcas": new_cas, "read": read}
    )


def atomic_spec(program: "ObjectProgram", name: Optional[str] = None) -> SpecObject:
    """The atomic (sequential) specification derived from a DSL program.

    Every method body runs to completion in one indivisible step over
    the shared state: the abstract state is the canonicalized
    ``(globals, heap)`` pair and a method application collects every
    reachable terminating run of the body's small-step semantics
    (nondeterminism in the body shows up as multiple outcomes, exactly
    the ``SpecMethod`` contract).  A body that cannot terminate from
    some state contributes no outcome from it -- the operation can then
    never linearize, matching the sequential semantics.

    This is the canonical specification for generated programs
    (:mod:`repro.testing.generators`), giving the differential harness
    a spec for *arbitrary* programs so both verdict engines can be run
    and cross-checked on fuzzed inputs.
    """
    from .semantics import execute
    from .state import canonicalize

    def make(method) -> SpecMethod:
        def run(state: Any, args: Tuple[Any, ...], _method=method):
            g, heap = state
            env = _method.initial_env(1, args)
            ops = _method.ops
            results = set()
            start = (g, heap, _method.pack_env(env), 0)
            seen = {start}
            stack = [start]
            while stack:
                cg, cheap, packed, pc = stack.pop()
                if pc >= len(ops):
                    raise ModelError(
                        f"method {_method.name!r} fell off the end "
                        "(body must end in Return)"
                    )
                cenv = _method.unpack_env(packed)
                for outcome in execute(program, ops[pc], cg, cheap, cenv):
                    if outcome[0] in ("ret", "retpend"):
                        _kind, ng, nheap, value = outcome
                        ng, nheap, _ = canonicalize(ng, nheap, ())
                        results.add(((ng, nheap), value))
                    else:
                        _kind, ng, nheap, nenv, target = outcome
                        npc = pc + 1 if target < 0 else target
                        node = (ng, nheap, _method.pack_env(nenv), npc)
                        if node not in seen:
                            seen.add(node)
                            stack.append(node)
            return sorted(results, key=repr)

        return run

    g0, heap0, _ = canonicalize(
        program.initial_globals(), program.initial_heap, ()
    )
    return SpecObject(
        name=name or f"atomic-{program.name}",
        initial=(g0, heap0),
        methods={m.name: make(m) for m in program.methods},
    )
