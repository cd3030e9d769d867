"""FaultPlan parsing and firing semantics (no processes involved)."""

import pytest

from repro.parallel.faults import Fault, FaultPlan, FaultPlanError


def test_parse_full_spec():
    plan = FaultPlan.parse("kill:1@40, stall:*@200 ,corrupt:0@10")
    assert [f.describe() for f in plan.faults] == [
        "kill:1@40", "stall:*@200", "corrupt:0@10"
    ]
    assert plan.faults[1].worker is None  # wildcard


def test_parse_empty_is_falsy():
    assert not FaultPlan.parse(None)
    assert not FaultPlan.parse("")
    assert not FaultPlan.parse(" , ")
    assert FaultPlan.parse("exit:0@1")


@pytest.mark.parametrize("spec", [
    "kill",                # no worker/threshold
    "kill:1",              # no threshold
    "explode:1@2",         # unknown kind
    "kill:x@2",            # bad worker
    "kill:-1@2",           # negative worker
    "kill:1@x",            # bad threshold
    "kill:1@-5",           # negative threshold
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(spec)


def test_fault_matches_threshold_and_worker():
    fault = Fault(kind="kill", worker=1, after_states=10)
    assert not fault.matches(1, 9)
    assert fault.matches(1, 10)
    assert not fault.matches(0, 100)  # addressed to worker 1
    fault.fired = True
    assert not fault.matches(1, 100)


def test_next_for_returns_first_unfired():
    plan = FaultPlan.parse("kill:0@5,exit:0@5")
    first = plan.next_for(0, 5)
    assert first is plan.faults[0]
    first.fired = True
    assert plan.next_for(0, 5) is plan.faults[1]


def test_mark_fired_retires_one_fault_per_death():
    plan = FaultPlan.parse("kill:*@1,kill:*@1")
    plan.mark_fired(0)
    assert [f.fired for f in plan.faults] == [True, False]
    plan.mark_fired(3)  # wildcard matches any index
    assert [f.fired for f in plan.faults] == [True, True]
    plan.mark_fired(0)  # nothing left to retire; no error


def test_mark_fired_skips_other_workers():
    plan = FaultPlan.parse("kill:2@1,kill:0@1")
    plan.mark_fired(0)
    assert [f.fired for f in plan.faults] == [False, True]


# ----------------------------------------------------------------------
# kind@states shorthand; only the four process-level kinds parse
# ----------------------------------------------------------------------

def test_parse_worker_shorthand_defaults_to_wildcard():
    # "kind@states" is shorthand for "kind:*@states".
    plan = FaultPlan.parse("kill@50")
    fault = plan.faults[0]
    assert fault.kind == "kill"
    assert fault.worker is None
    assert fault.after_states == 50
    assert fault.matches(7, 50)


@pytest.mark.parametrize("spec", [
    # parse() lower-cases kinds, so these are the old network kinds.
    "DROP-CONN:1@50",
    "STALL-SOCKET:*@10",
    "CORRUPT-FRAME:0@5",
    "partition@2",
])
def test_parse_rejects_network_kinds(spec):
    # There is no socket transport: a network kind must be refused, not
    # mapped onto a process-level fault or silently ignored.
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultPlan.parse(spec)
