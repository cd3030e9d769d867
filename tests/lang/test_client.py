"""Most-general-client explorer tests."""

import pytest

from repro.core import TAU_ID, tau_cycle_states
from repro.core.aut import dumps_aut
from repro.lang import (
    Alloc,
    AtomicBlock,
    ClientConfig,
    FetchAddGlobal,
    HeapBuilder,
    If,
    LocalAssign,
    Lock,
    Method,
    ModelError,
    ObjectProgram,
    ReadField,
    ReadGlobal,
    Return,
    StateExplosion,
    StreamingExplorer,
    While,
    WriteField,
    WriteGlobal,
    explore,
    uniform_workload,
)
from repro.lang.client import ExpansionContext
from repro.testing import explore_without_step_cache


def counter_program():
    """inc() with a non-atomic read/write pair (racy by design)."""
    return ObjectProgram(
        "counter",
        methods=[
            Method("inc", locals_={"x": None}, body=[
                ReadGlobal("x", "C").at("L1"),
                WriteGlobal("C", lambda L: L["x"] + 1).at("L2"),
                Return("x").at("L3"),
            ]),
        ],
        globals_={"C": 0},
    )


def atomic_counter_program():
    return ObjectProgram(
        "atomic-counter",
        methods=[
            Method("inc", locals_={"x": None}, body=[
                FetchAddGlobal("x", "C", 1).at("L1"),
                Return("x").at("L2"),
            ]),
        ],
        globals_={"C": 0},
    )


WL = [("inc", ())]


def labels_of(lts):
    return {lts.action_labels[aid] for _s, aid, _d in lts.transitions()}


def test_call_and_ret_labels_are_one_based():
    lts = explore(counter_program(), ClientConfig(2, 1, WL))
    labels = labels_of(lts)
    assert ("call", 1, "inc", ()) in labels
    assert ("call", 2, "inc", ()) in labels
    assert ("ret", 1, "inc", 0) in labels


def test_racy_counter_loses_an_update():
    # Two overlapping incs can both read 0 -> both return 0.
    lts = explore(counter_program(), ClientConfig(2, 1, WL))
    labels = labels_of(lts)
    assert ("ret", 1, "inc", 0) in labels
    assert ("ret", 2, "inc", 0) in labels
    # Sequential execution also possible: someone returns 1.
    assert ("ret", 1, "inc", 1) in labels


def test_atomic_counter_returns_are_distinct():
    lts = explore(atomic_counter_program(), ClientConfig(2, 1, WL))
    labels = labels_of(lts)
    assert ("ret", 1, "inc", 0) in labels and ("ret", 1, "inc", 1) in labels
    # fetch-add cannot duplicate a ticket: both threads returning 0 would
    # require both to see C==0 atomically -- look for any trace with two
    # ret ... 0 labels: the LTS cannot contain a path with both.
    # (checked structurally below: from init, after (ret,t,inc,0) by one
    # thread no (ret,t',inc,0) is reachable)
    from repro.core import make_lts
    # walk: collect states reachable after a (ret,*,inc,0)
    ret0 = {aid for aid, lbl in enumerate(lts.action_labels)
            if isinstance(lbl, tuple) and lbl[0] == "ret" and lbl[3] == 0}
    after = set()
    for s, aid, d in lts.transitions():
        if aid in ret0:
            after.add(d)
    # BFS from those states: no further ret..0
    seen = set(after)
    stack = list(after)
    while stack:
        s = stack.pop()
        for aid, d in lts.successors(s):
            assert aid not in ret0, "two zero tickets in one execution"
            if d not in seen:
                seen.add(d)
                stack.append(d)


def test_ops_budget_bounds_invocations():
    lts = explore(counter_program(), ClientConfig(1, 3, WL))
    # Max return value is 2 (three sequential incs return 0,1,2).
    rets = [lbl for lbl in labels_of(lts) if lbl[0] == "ret"]
    assert max(lbl[3] for lbl in rets) == 2


def test_local_fusion_removes_local_states():
    # A method with many local steps between shared accesses: the local
    # chain must not create extra states.
    chatty = ObjectProgram(
        "chatty",
        methods=[
            Method("m", locals_={"a": 0, "b": 0, "c": 0}, body=[
                LocalAssign(a=1),
                LocalAssign(b=lambda L: L["a"] + 1),
                LocalAssign(c=lambda L: L["b"] + 1),
                ReadGlobal("a", "X"),
                LocalAssign(b=lambda L: L["a"] * 2),
                Return("b"),
            ]),
        ],
        globals_={"X": 21},
    )
    lts = explore(chatty, ClientConfig(1, 1, [("m", ())]))
    # states: init, in-method-before-read, after-read, done = 4
    assert lts.num_states == 4
    assert ("ret", 1, "m", 42) in labels_of(lts)


def test_local_infinite_loop_surfaces_as_tau_cycle():
    spinner = ObjectProgram(
        "spinner",
        methods=[
            Method("spin", locals_={"x": 0}, body=[
                While(True, [LocalAssign(x=lambda L: L["x"] % 2)]),
                Return(None),
            ]),
        ],
        globals_={},
    )
    lts = explore(spinner, ClientConfig(1, 1, [("spin", ())]))
    assert tau_cycle_states(lts)


def test_annotations_carry_thread_and_line():
    lts = explore(counter_program(), ClientConfig(2, 1, WL))
    annotations = {
        ann for _s, aid, _d, ann in lts.transitions_with_annotations()
        if aid == TAU_ID
    }
    assert "t1.L1" in annotations
    assert "t2.L2" in annotations


def test_max_states_raises():
    with pytest.raises(StateExplosion):
        explore(counter_program(), ClientConfig(2, 2, WL, max_states=10))


def test_state_explosion_is_budget_exhaustion():
    # Budget-aware callers catch the whole taxonomy with one except.
    from repro.util.budget import BudgetExhausted

    with pytest.raises(BudgetExhausted) as exc:
        explore(counter_program(), ClientConfig(2, 2, WL, max_states=10))
    assert exc.value.reason == "states"
    assert exc.value.phase == "explore"
    assert exc.value.progress["states"] > 10


def test_default_state_cap_and_opt_out():
    from repro.lang.client import DEFAULT_MAX_STATES

    # None means the documented safety net, 0 opts out, positive wins.
    assert ClientConfig(2, 1, WL).effective_max_states() == DEFAULT_MAX_STATES
    assert ClientConfig(2, 1, WL, max_states=0).effective_max_states() is None
    assert ClientConfig(2, 1, WL, max_states=7).effective_max_states() == 7
    # The opt-out really is unbounded for a system of any explorable size.
    lts = explore(counter_program(), ClientConfig(2, 2, WL, max_states=0))
    assert lts.num_states > 0


def test_bad_workloads_rejected():
    with pytest.raises(ModelError):
        explore(counter_program(), ClientConfig(2, 1, []))
    with pytest.raises(ModelError):
        explore(counter_program(), ClientConfig(2, 1, [("nope", ())]))
    with pytest.raises(ModelError):
        explore(counter_program(), ClientConfig(2, 1, [("inc", [1])]))


def test_method_must_end_in_return():
    bad = ObjectProgram(
        "bad",
        methods=[Method("m", body=[LocalAssign(x=1)])],
        globals_={},
    )
    with pytest.raises(ModelError):
        explore(bad, ClientConfig(1, 1, [("m", ())]))


def test_uniform_workload_flattens():
    wl = uniform_workload({"push": [(1,), (2,)], "pop": [()]})
    assert ("push", (1,)) in wl and ("pop", ()) in wl
    assert len(wl) == 3


def test_atomic_block_is_one_step():
    prog = ObjectProgram(
        "ab",
        methods=[
            Method("m", locals_={"x": None}, body=[
                AtomicBlock([
                    ReadGlobal("x", "X"),
                    WriteGlobal("X", lambda L: L["x"] + 1),
                ]),
                Return("x"),
            ]),
        ],
        globals_={"X": 0},
    )
    lts = explore(prog, ClientConfig(2, 1, [("m", ())]))
    # The atomic increment cannot be lost: some execution returns 1 and
    # in NO execution do both threads return 0.
    labels = labels_of(lts)
    assert ("ret", 1, "m", 1) in labels or ("ret", 2, "m", 1) in labels
    spec_like = explore(atomic_counter_program(), ClientConfig(2, 1, WL))
    from repro.core import compare_branching
    mapped = lts.relabel(
        lambda lbl: lbl if lbl == ("tau",) else (lbl[0], lbl[1], "inc", lbl[3])
    )
    assert compare_branching(mapped, spec_like).equivalent


def test_pending_return_separates_decision_from_return():
    prog = ObjectProgram(
        "pr",
        methods=[
            Method("m", locals_={"x": None}, body=[
                AtomicBlock([
                    ReadGlobal("x", "X"),
                    If(lambda L: L["x"] == 0, [Return("x")]),
                ]),
                Return(7),
            ]),
        ],
        globals_={"X": 0},
    )
    lts = explore(prog, ClientConfig(1, 1, [("m", ())]))
    # call -> tau (atomic decision) -> ret : 4 states.
    assert lts.num_states == 4
    tau_count = sum(1 for _s, aid, _d in lts.transitions() if aid == TAU_ID)
    assert tau_count == 1


def lock_twins_program():
    """Reaches two states that agree under ``==`` on thread 1's view
    ``(globals, heap, record)`` but hold ``False`` in one and ``0`` in
    the other, with thread 1 about to ``Lock`` that global."""
    return ObjectProgram(
        "lock-twins",
        methods=[
            Method("take", body=[
                Lock("flag").at("L1"),
                Return(None).at("L2"),
            ]),
            # Two methods, so the writers' records tell the states apart.
            Method("release", body=[
                WriteGlobal("flag", False).at("L3"),
                Return(None).at("L4"),
            ]),
            Method("zero", body=[
                WriteGlobal("flag", 0).at("L5"),
                Return(None).at("L6"),
            ]),
        ],
        globals_={"flag": True},
    )


@pytest.mark.parametrize("order", ["release-first", "zero-first"])
def test_step_cache_never_serves_a_bool_int_twin(order):
    program = lock_twins_program()
    workload = [("take", ()), ("release", ()), ("zero", ())]
    if order == "zero-first":
        workload = [("take", ()), ("zero", ()), ("release", ())]
    config = ClientConfig(2, 1, workload)
    cached = explore(program, config)
    assert dumps_aut(cached) == dumps_aut(explore_without_step_cache(program, config))

    # The scenario is reached: both flag values in front of thread 1's Lock.
    explorer = StreamingExplorer(ExpansionContext(program, config))
    explorer.drain()
    take, release, zero = (program.method_index[m] for m in ("take", "release", "zero"))
    views = {}
    for g, _heap, threads in explorer.builder.state_keys:
        if threads[0][:2] == (take, 0) and threads[1][1] == 1:
            views.setdefault(threads[1][0], set()).add(type(g[0]))
    assert views == {release: {bool}, zero: {int}}
    # Only the False flavour lets thread 1 take the lock.
    assert ("ret", 1, "take", None) in labels_of(cached)


def field_twins_program():
    """Reaches two states that agree under ``==`` on thread 1's view but
    whose node field holds ``False`` in one and ``0`` in the other, with
    thread 1 about to read that field and branch on ``is False``."""
    heap = HeapBuilder(["val"])
    node = heap.alloc(val=True)
    return ObjectProgram(
        "field-twins",
        methods=[
            Method("peek", locals_={"p": None, "v": None}, body=[
                ReadGlobal("p", "node").at("L1"),
                ReadField("v", "p", "val").at("L2"),
                If(lambda L: L["v"] is False,
                   [Return(1).at("L3")], [Return(2).at("L4")]),
            ]),
            # Two writers, so their records tell the states apart.
            Method("release", locals_={"p": None}, body=[
                ReadGlobal("p", "node").at("L5"),
                WriteField("p", "val", False).at("L6"),
                Return(None).at("L7"),
            ]),
            Method("zero", locals_={"p": None}, body=[
                ReadGlobal("p", "node").at("L8"),
                WriteField("p", "val", 0).at("L9"),
                Return(None).at("L10"),
            ]),
        ],
        globals_={"node": node},
        node_fields=["val"],
        initial_heap=heap.heap(),
    )


@pytest.mark.parametrize("order", ["release-first", "zero-first"])
def test_step_cache_never_serves_a_field_value_twin(order):
    # A field read is cached by the value it reads; False and 0 are
    # ``==`` but only False takes the ``is False`` branch.
    program = field_twins_program()
    workload = [("peek", ()), ("release", ()), ("zero", ())]
    if order == "zero-first":
        workload = [("peek", ()), ("zero", ()), ("release", ())]
    config = ClientConfig(2, 1, workload)
    cached = explore(program, config)
    assert dumps_aut(cached) == dumps_aut(explore_without_step_cache(program, config))

    # The scenario is reached: both field values in front of thread 1's
    # ReadField, after each writer's write.
    explorer = StreamingExplorer(ExpansionContext(program, config))
    explorer.drain()
    peek, release, zero = (program.method_index[m] for m in ("peek", "release", "zero"))
    views = {}
    for _g, heap, threads in explorer.builder.state_keys:
        if threads[0][:2] == (peek, 1) and threads[1][1] == 2:
            views.setdefault(threads[1][0], set()).add(type(heap[0][1]))
    assert views == {release: {bool}, zero: {int}}
    assert {("ret", 1, "peek", 1), ("ret", 1, "peek", 2)} <= labels_of(cached)


@pytest.mark.parametrize("order", ["release-first", "zero-first"])
def test_state_table_keeps_bool_int_twins_apart(order):
    # The False and 0 flavours of the flag are different states (only
    # False lets Lock through), so the system must not depend on which
    # flavour the DFS reaches first.
    workload = [("take", ()), ("release", ()), ("zero", ())]
    if order == "zero-first":
        workload = [("take", ()), ("zero", ()), ("release", ())]
    lts = explore(lock_twins_program(), ClientConfig(2, 1, workload))
    assert (lts.num_states, lts.num_transitions) == (71, 128)
    deadlocks = [s for s in range(lts.num_states) if not list(lts.successors(s))]
    assert len(deadlocks) == 6


def test_expansion_context_is_freed_when_explore_returns(monkeypatch):
    # The context's caches hold no reference back to it (no bound method
    # of it is stored), so it dies with its explorer, before any garbage
    # collection; a reference cycle would keep every cache alive until
    # the next one.
    import gc
    import weakref

    from repro.lang import client
    from repro.objects import get
    from repro.util.metrics import Stats

    contexts = []

    class Tracked(client.ExpansionContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(client, "ExpansionContext", Tracked)
    bench = get("ms_queue")
    stats = Stats()
    enabled = gc.isenabled()
    gc.disable()
    try:
        explore(bench.build(2), ClientConfig(2, 1, bench.default_workload()),
                stats=stats)
        assert len(contexts) == 1
        assert contexts[0]() is None
    finally:
        if enabled:
            gc.enable()
    # The run renumbered, so the memo that could hold the cycle was used.
    assert stats.counters["explore.renumberings"] > 0


def test_token_set_mid_stream_stops_at_the_next_safe_point():
    # With no deadline or RSS cap the safe point skips the budget check
    # until the token is set (as SIGINT or the daemon's cancel sets it);
    # then the next pop raises with the snapshot of that safe point.
    from repro.objects import get
    from repro.util.budget import BudgetExhausted, CancellationToken, RunBudget

    bench = get("ms_queue")
    token = CancellationToken()
    explorer = StreamingExplorer(
        ExpansionContext(bench.build(2), ClientConfig(2, 1, bench.default_workload())),
        budget=RunBudget(token=token),
    )
    for _ in range(5):
        assert explorer.expand_next()
    token.set()
    snapshot = {
        "states": explorer.num_states,
        "transitions": explorer.num_transitions,
        "frontier": len(explorer.snapshot().frontier),
    }
    with pytest.raises(BudgetExhausted) as exc:
        explorer.expand_next()
    assert exc.value.reason == "interrupted"
    assert exc.value.phase == "explore"
    assert exc.value.progress == snapshot
    assert explorer.states_expanded == 5
