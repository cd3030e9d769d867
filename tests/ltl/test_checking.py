"""LTL model checking tests: Büchi construction + nested DFS + progress."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import make_lts
from repro.ltl import (
    AP,
    And,
    Finally,
    Globally,
    Implies,
    Not,
    Or,
    Release,
    Until,
    check_ltl,
    check_lock_freedom_ltl,
    ltl_to_buchi,
    stutter_complete,
)
from repro.ltl.product import DEADLOCK
from tests.helpers import lts_strategy

a = AP("a", lambda l: l == "a")
b = AP("b", lambda l: l == "b")
tau = AP("tau", lambda l: l == ("tau",))
dead = AP("dead", lambda l: l == DEADLOCK)


def test_globally_on_selfloop():
    lts = make_lts(1, 0, [(0, "a", 0)])
    assert check_ltl(lts, Globally(a)).holds
    assert not check_ltl(lts, Globally(b)).holds


def test_finally_must_hold_on_all_paths():
    # Branch: one path reaches b, the other loops on a forever.
    lts = make_lts(3, 0, [(0, "a", 0), (0, "b", 1), (1, "a", 1)])
    assert not check_ltl(lts, Finally(b)).holds
    # Remove the escape loop on a at state 0: force b.
    forced = make_lts(2, 0, [(0, "b", 1), (1, "a", 1)])
    assert check_ltl(forced, Finally(b)).holds


def test_until():
    lts = make_lts(3, 0, [(0, "a", 1), (1, "a", 2), (2, "b", 2)])
    assert check_ltl(lts, Until(a, b)).holds
    swapped = make_lts(3, 0, [(0, "b", 1), (1, "a", 1)])
    # a U b requires b eventually with a before: first letter b satisfies it.
    assert check_ltl(swapped, Until(a, b)).holds


def test_release():
    # b R a: a must hold up to and including the step where b holds...
    # action-based: letters satisfy a forever (b never required).
    lts = make_lts(1, 0, [(0, "a", 0)])
    assert check_ltl(lts, Release(b, a)).holds
    broken = make_lts(2, 0, [(0, "a", 1), (1, "b", 1)])
    assert not check_ltl(broken, Release(b, a)).holds


def test_response_property():
    lts = make_lts(2, 0, [(0, "a", 1), (1, "b", 0)])
    assert check_ltl(lts, Globally(Implies(a, Finally(b)))).holds
    starved = make_lts(2, 0, [(0, "a", 1), (1, "a", 1)])
    result = check_ltl(starved, Globally(Implies(a, Finally(b))))
    assert not result.holds
    assert result.cycle is not None
    assert "b" not in result.cycle


def test_deadlock_stuttering():
    lts = make_lts(2, 0, [(0, "a", 1)])
    # Terminal state stutters forever: F dead holds, G F a fails.
    assert check_ltl(lts, Finally(dead)).holds
    assert not check_ltl(lts, Globally(Finally(a))).holds
    assert check_ltl(lts, Finally(a)).holds


def test_counterexample_is_replayable():
    lts = make_lts(3, 0, [(0, "a", 1), (1, "a", 0), (0, "b", 2), (2, "b", 2)])
    result = check_ltl(lts, Globally(Finally(a)))
    assert not result.holds
    word = (result.prefix or []) + (result.cycle or [])
    # Replay on the stutter-completed system.
    system = stutter_complete(lts)
    states = {system.init}
    for label in word:
        aid = system.lookup_action(label)
        assert aid is not None
        states = {d for s in states for a2, d in system.successors(s) if a2 == aid}
        assert states, f"counterexample not replayable at {label!r}"
    assert all(label == "b" for label in result.cycle)


def test_boolean_combinations():
    lts = make_lts(2, 0, [(0, "a", 1), (1, "b", 0)])
    assert check_ltl(lts, Or(Globally(a), Globally(Finally(b)))).holds
    assert not check_ltl(lts, And(Finally(a), Globally(a))).holds
    assert check_ltl(lts, Not(Globally(a))).holds


def test_buchi_construction_is_finite_and_nonempty():
    automaton = ltl_to_buchi(Globally(Finally(a)))
    assert automaton.num_states > 0
    assert automaton.accepting


def test_lock_freedom_ltl_examples():
    spin = make_lts(2, 0, [(0, ("call", 1, "m", ()), 1), (1, "tau", 1)])
    result = check_lock_freedom_ltl(spin)
    assert not result.holds
    fine = make_lts(3, 0, [
        (0, ("call", 1, "m", ()), 1), (1, "tau", 2), (2, ("ret", 1, "m", 0), 0),
    ])
    assert check_lock_freedom_ltl(fine).holds


COMMON = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@COMMON
@given(lts_strategy(labels=("tau", "a")))
def test_gfa_agrees_with_graph_oracle(lts):
    # G F a fails iff a reachable cycle uses no 'a' edge (incl. deadlock
    # stuttering, which is an a-free self-loop).
    result = check_ltl(lts, Globally(Finally(a)))
    system = stutter_complete(lts)
    # Oracle: search a reachable cycle avoiding 'a'.
    a_id = system.lookup_action("a")
    reachable = system.reachable_states()
    adj = {s: [d for aid, d in system.successors(s) if aid != a_id]
           for s in reachable}
    # cycle detection restricted to reachable non-a subgraph
    import itertools
    color = {}
    def has_cycle(start):
        stack = [(start, iter(adj.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in reachable:
                    continue
                state = color.get(nxt, 0)
                if state == 1:
                    return True
                if state == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    break
            else:
                color[node] = 2
                stack.pop()
        return False
    oracle_violation = any(
        has_cycle(s) for s in reachable if color.get(s, 0) == 0
    )
    assert result.holds == (not oracle_violation)


def test_thread_response_formula():
    from repro.ltl.progress import thread_response_formula
    # t1 calls then returns, forever: response holds for t1.
    good = make_lts(2, 0, [
        (0, ("call", 1, "m", ()), 1), (1, ("ret", 1, "m", 0), 0),
    ])
    assert check_ltl(good, thread_response_formula(1)).holds
    # t1 calls, then only t2 makes progress forever: t1 starves.
    starved = make_lts(3, 0, [
        (0, ("call", 1, "m", ()), 1),
        (1, ("call", 2, "m", ()), 2),
        (2, ("ret", 2, "m", 0), 1),
    ])
    assert not check_ltl(starved, thread_response_formula(1)).holds
    assert check_ltl(starved, thread_response_formula(2)).holds


def test_thread_response_method_filter():
    from repro.ltl.progress import thread_response_formula
    lts = make_lts(3, 0, [
        (0, ("call", 1, "push", (1,)), 1),
        (1, ("ret", 1, "push", None), 2),
        (2, ("call", 1, "pop", ()), 2),   # pop called forever, never returns
    ])
    assert check_ltl(lts, thread_response_formula(1, "push")).holds
    assert not check_ltl(lts, thread_response_formula(1, "pop")).holds


def test_lock_freedom_formula_rendering():
    from repro.ltl import render
    from repro.ltl.progress import lock_freedom_formula
    text = render(lock_freedom_formula())
    assert "ret" in text and "deadlock" in text


def test_check_ltl_honours_run_budget():
    from repro.util.budget import BudgetExhausted, RunBudget

    lts = make_lts(2, 0, [(0, "a", 1), (1, "b", 0)])
    with pytest.raises(BudgetExhausted) as exc:
        check_ltl(lts, Globally(Finally(a)),
                  budget=RunBudget(deadline_seconds=0.0))
    assert exc.value.reason == "deadline"
    assert exc.value.phase == "ltl"
    # Without a budget the same check completes.
    assert check_ltl(lts, Globally(Finally(a))).holds


def test_check_lock_freedom_ltl_honours_run_budget():
    from repro.util.budget import BudgetExhausted, RunBudget

    lts = make_lts(2, 0, [
        (0, ("call", 1, "m", ()), 1), (1, ("ret", 1, "m", 0), 0),
    ])
    with pytest.raises(BudgetExhausted):
        check_lock_freedom_ltl(lts, budget=RunBudget(deadline_seconds=0.0))
    assert check_lock_freedom_ltl(lts).holds
