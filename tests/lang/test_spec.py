"""Linearizable specification generator tests (Section II.C)."""

import pytest

from repro.core import TAU_ID, tau_cycle_states
from repro.core.aut import dumps_aut
from repro.lang import (
    EMPTY,
    ClientConfig,
    SpecObject,
    explore,
    queue_spec,
    register_spec,
    set_spec,
    spec_lts,
    stack_spec,
)
from repro.lang.checkpoint import (
    CheckpointMismatch,
    CheckpointSink,
    load_checkpoint,
    spec_fingerprint,
)
from repro.util.budget import BudgetExhausted, RunBudget


def labels_of(lts):
    return {lts.action_labels[aid] for _s, aid, _d in lts.transitions()}


def test_method_execution_is_three_steps():
    # One thread, one op: call, atomic tau, ret -> exactly 4 states.
    lts = spec_lts(queue_spec(), 1, 1, [("enq", (1,))])
    assert lts.num_states == 4
    kinds = [lts.action_labels[aid][0] if aid != TAU_ID else "tau"
             for _s, aid, _d in lts.transitions()]
    assert sorted(kinds) == ["call", "ret", "tau"]


def test_queue_spec_fifo():
    def run(*calls):
        state = ()
        out = []
        spec = queue_spec()
        for m, args in calls:
            results = spec.method(m)(state, args)
            assert len(results) == 1
            state, value = results[0]
            out.append(value)
        return out

    assert run(("enq", (1,)), ("enq", (2,)), ("deq", ()), ("deq", ()), ("deq", ())) \
        == [None, None, 1, 2, EMPTY]


def test_stack_spec_lifo():
    spec = stack_spec()
    state = ()
    state, _ = spec.method("push")(state, (1,))[0]
    state, _ = spec.method("push")(state, (2,))[0]
    state, v = spec.method("pop")(state, ())[0]
    assert v == 2
    state, v = spec.method("pop")(state, ())[0]
    assert v == 1
    _, v = spec.method("pop")(state, ())[0]
    assert v == EMPTY


def test_set_spec_semantics():
    spec = set_spec()
    state = frozenset()
    state, added = spec.method("add")(state, (1,))[0]
    assert added is True
    state, added = spec.method("add")(state, (1,))[0]
    assert added is False
    _, found = spec.method("contains")(state, (1,))[0]
    assert found is True
    state, removed = spec.method("remove")(state, (1,))[0]
    assert removed is True
    _, removed = spec.method("remove")(state, (1,))[0]
    assert removed is False


def test_register_spec_newcas():
    spec = register_spec(0)
    state, prior = spec.method("newcas")(0, (0, 5))[0]
    assert (state, prior) == (5, 0)
    state, prior = spec.method("newcas")(5, (0, 7))[0]
    assert (state, prior) == (5, 5)  # mismatch: unchanged, prior returned


def test_spec_lts_is_lock_free():
    lts = spec_lts(queue_spec(), 2, 2, [("enq", (1,)), ("deq", ())])
    assert tau_cycle_states(lts) == []


def test_spec_lts_interleaving_labels():
    lts = spec_lts(stack_spec(), 2, 1, [("push", (1,)), ("pop", ())])
    labels = labels_of(lts)
    assert ("call", 1, "push", (1,)) in labels
    assert ("ret", 2, "pop", EMPTY) in labels
    assert ("ret", 2, "pop", 1) in labels


def test_nondeterministic_spec_supported():
    flaky = SpecObject(
        "flaky", initial=0,
        methods={"flip": lambda state, args: [(0, "heads"), (1, "tails")]},
    )
    lts = spec_lts(flaky, 1, 1, [("flip", ())])
    labels = labels_of(lts)
    assert ("ret", 1, "flip", "heads") in labels
    assert ("ret", 1, "flip", "tails") in labels


# ----------------------------------------------------------------------
# checkpoint / resume of specification generation
# ----------------------------------------------------------------------

_WORKLOAD = [("enq", (1,)), ("deq", ())]


@pytest.mark.parametrize("cap", [0, -1])
def test_spec_cap_below_one_is_no_cap(cap):
    # The object system's rule (ClientConfig): a cap <= 0 is no cap.
    full = spec_lts(queue_spec(), 2, 2, _WORKLOAD)
    uncapped = spec_lts(queue_spec(), 2, 2, _WORKLOAD, cap)
    assert dumps_aut(uncapped) == dumps_aut(full)


def test_spec_checkpoint_resume_bit_identical(tmp_path):
    full = spec_lts(queue_spec(), 2, 2, _WORKLOAD)
    path = str(tmp_path / "spec.ckpt")
    with pytest.raises(BudgetExhausted):
        spec_lts(
            queue_spec(), 2, 2, _WORKLOAD, max_states=40,
            checkpoint=CheckpointSink(path, interval_seconds=0.0),
        )
    resumed = spec_lts(
        queue_spec(), 2, 2, _WORKLOAD, resume=load_checkpoint(path)
    )
    assert dumps_aut(resumed.freeze()) == dumps_aut(full.freeze())


def test_spec_checkpoint_resume_after_deadline(tmp_path):
    full = spec_lts(queue_spec(), 2, 2, _WORKLOAD)
    path = str(tmp_path / "deadline.ckpt")
    with pytest.raises(BudgetExhausted) as exc:
        spec_lts(
            queue_spec(), 2, 2, _WORKLOAD,
            budget=RunBudget(deadline_seconds=0.0),
            checkpoint=CheckpointSink(path, interval_seconds=0.0),
        )
    assert exc.value.reason == "deadline"
    assert exc.value.phase == "spec"
    resumed = spec_lts(
        queue_spec(), 2, 2, _WORKLOAD, resume=load_checkpoint(path)
    )
    assert dumps_aut(resumed.freeze()) == dumps_aut(full.freeze())


def test_spec_fingerprint_rejects_config_drift(tmp_path):
    path = str(tmp_path / "drift.ckpt")
    with pytest.raises(BudgetExhausted):
        spec_lts(
            queue_spec(), 2, 2, _WORKLOAD, max_states=40,
            checkpoint=CheckpointSink(path, interval_seconds=0.0),
        )
    with pytest.raises(CheckpointMismatch):
        spec_lts(
            queue_spec(), 2, 3, _WORKLOAD, resume=load_checkpoint(path)
        )


def test_spec_fingerprint_distinct_from_impl(tmp_path):
    # A spec checkpoint must never resume an implementation exploration
    # (and vice versa): the fingerprint carries a kind marker.
    from repro.objects import get

    bench = get("treiber")
    program = bench.build(2)
    config = ClientConfig(
        num_threads=2, ops_per_thread=2,
        workload=bench.default_workload(), max_states=200,
    )
    path = str(tmp_path / "impl.ckpt")
    with pytest.raises(BudgetExhausted):
        explore(program, config,
                checkpoint=CheckpointSink(path, interval_seconds=0.0))
    with pytest.raises(CheckpointMismatch):
        spec_lts(queue_spec(), 2, 2, _WORKLOAD, resume=load_checkpoint(path))


def test_spec_fingerprint_is_deterministic():
    one = spec_fingerprint(queue_spec(), 2, 2, _WORKLOAD)
    two = spec_fingerprint(queue_spec(), 2, 2, _WORKLOAD)
    assert one == two
    assert one["kind"] == "spec"
    assert one != spec_fingerprint(queue_spec(), 3, 2, _WORKLOAD)
    assert one != spec_fingerprint(stack_spec(), 2, 2,
                                   [("push", (1,)), ("pop", ())])
