"""Trace refinement tests (Definition 2.2) and counterexample validity."""

import glob
import os

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    make_lts,
    language_partition,
    tau_closures,
    trace_equivalent,
    trace_partition,
    trace_refines,
    TAU_ID,
)
from repro.core import traces
from repro.core.graphs import LazyReachabilityClosure, reachability_closure
from repro.core.lts import tau_successor_lists
from repro.util.metrics import Stats

from tests.helpers import bounded_traces, is_trace_of


def test_reflexive():
    lts = make_lts(4, 0, [(0, "a", 1), (1, "tau", 2), (2, "b", 3)])
    assert trace_refines(lts, lts).holds


def test_simple_inclusion_and_counterexample():
    impl = make_lts(3, 0, [(0, "a", 1), (1, "b", 2)])
    spec = make_lts(4, 0, [(0, "a", 1), (1, "b", 2), (1, "c", 3)])
    assert trace_refines(impl, spec).holds
    result = trace_refines(spec, impl)
    assert not result.holds
    assert result.counterexample == ["a", "c"]


def test_tau_steps_do_not_appear_in_traces():
    impl = make_lts(4, 0, [(0, "tau", 1), (1, "a", 2), (2, "tau", 3)])
    spec = make_lts(2, 0, [(0, "a", 1)])
    assert trace_refines(impl, spec).holds
    assert trace_refines(spec, impl).holds
    assert trace_equivalent(impl, spec)


def test_spec_tau_closure_used():
    # Spec needs two taus before it can do 'a'.
    impl = make_lts(2, 0, [(0, "a", 1)])
    spec = make_lts(4, 0, [(0, "tau", 1), (1, "tau", 2), (2, "a", 3)])
    assert trace_refines(impl, spec).holds


def test_unknown_action_is_immediate_violation():
    impl = make_lts(2, 0, [(0, "z", 1)])
    spec = make_lts(2, 0, [(0, "a", 1)])
    result = trace_refines(impl, spec)
    assert not result.holds
    assert result.counterexample == ["z"]


def test_nondeterministic_spec_tracked_as_subset():
    # spec: a.b + a.c ; impl: a.(b+c) -- trace inclusion holds both ways
    # even though they are not bisimilar.
    impl = make_lts(4, 0, [(0, "a", 1), (1, "b", 2), (1, "c", 3)])
    spec = make_lts(6, 0, [
        (0, "a", 1), (1, "b", 2),
        (0, "a", 3), (3, "c", 4),
    ])
    assert trace_refines(impl, spec).holds
    assert trace_refines(spec, impl).holds


def test_counterexample_is_real_trace_of_impl_not_spec():
    impl = make_lts(5, 0, [
        (0, "a", 1), (1, "tau", 2), (2, "b", 3), (3, "c", 4),
    ])
    spec = make_lts(4, 0, [(0, "a", 1), (1, "b", 2), (2, "d", 3)])
    result = trace_refines(impl, spec)
    assert not result.holds
    assert is_trace_of(impl, result.counterexample)
    assert not is_trace_of(spec, result.counterexample)


def test_cyclic_systems_terminate():
    impl = make_lts(2, 0, [(0, "a", 1), (1, "b", 0)])
    spec = make_lts(1, 0, [(0, "a", 0), (0, "b", 0)])
    assert trace_refines(impl, spec).holds
    assert not trace_refines(spec, impl).holds


def test_render_counterexample():
    impl = make_lts(2, 0, [(0, "a", 1)])
    spec = make_lts(1, 0, [])
    result = trace_refines(impl, spec)
    text = result.render_counterexample()
    assert "a" in text and "initial state" in text
    assert "no counterexample" in trace_refines(spec, impl).render_counterexample()


def test_state_tau_closures():
    lts = make_lts(4, 0, [(0, "tau", 1), (1, "tau", 2), (2, "a", 3)])
    closures = tau_closures(lts)
    assert closures[0] == frozenset({0, 1, 2})
    assert closures[3] == frozenset({3})


def test_trace_partition_matches_bounded_enumeration():
    lts = make_lts(7, 0, [
        (0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "b", 4),
        (4, "c", 5), (0, "tau", 6), (6, "a", 1),
    ])
    blocks = trace_partition(lts)
    # States 3 and 5 are both deadlocked: same (empty) traces.
    assert blocks[3] == blocks[5]
    # 1 (can do b) vs 2 (can do b.c) differ.
    assert blocks[1] != blocks[2]
    # Brute-force cross-check on all pairs with bounded traces.
    for s in range(7):
        for r in range(7):
            same = bounded_traces(lts, s, 5) == bounded_traces(lts, r, 5)
            assert same == (blocks[s] == blocks[r]), (s, r)


def test_language_partition_epsilon_compression():
    # Symbols chosen so the 'a' transition is invisible: states 0 and 1
    # then have identical languages.
    lts = make_lts(3, 0, [(0, "a", 1), (1, "b", 2)])

    def symbol(src, aid, dst):
        label = lts.action_labels[aid]
        return None if label == "a" else label

    blocks = language_partition(lts, symbol)
    assert blocks[0] == blocks[1]
    assert blocks[0] != blocks[2]


# ----------------------------------------------------------------------
# tau-closures on demand
# ----------------------------------------------------------------------

@st.composite
def _tau_cyclic_systems(draw):
    """Small LTSs, tau-dense, with at least one tau-cycle."""
    n = draw(st.integers(min_value=1, max_value=9))
    edges = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.sampled_from(["tau", "tau", "a", "b"]),
        st.integers(0, n - 1),
    ), max_size=20))
    start = draw(st.integers(0, n - 1))
    length = draw(st.integers(1, n))
    cycle = [(start + k) % n for k in range(length)]
    edges += [(cycle[k], "tau", cycle[(k + 1) % length]) for k in range(length)]
    return make_lts(n, draw(st.integers(0, n - 1)), edges)


@given(_tau_cyclic_systems(), st.randoms(use_true_random=False))
def test_closures_on_demand_match_state_tau_closures(lts, rng):
    eager = tau_closures(lts)
    for system in (lts, lts.freeze()):
        lazy = LazyReachabilityClosure(tau_successor_lists(system))
        order = list(range(lts.num_states))
        rng.shuffle(order)
        for state in order:
            assert lazy[state] == eager[state]
        # One set per tau-SCC, as in the eager closures.
        for s in range(lts.num_states):
            for t in range(lts.num_states):
                assert (lazy[s] is lazy[t]) == (eager[s] is eager[t])


def _corpus_pairs():
    from repro.core import branching_partition, quotient_lts
    from repro.core.aut import read_aut
    from repro.lang import ClientConfig, explore
    from repro.objects import get

    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
    systems = [read_aut(path) for path in sorted(glob.glob(os.path.join(corpus, "*.aut")))]
    pairs = [(impl, spec) for impl in systems for spec in systems]
    for key in ("hw_queue", "ms_queue", "treiber"):
        bench = get(key)
        system = explore(bench.build(2), ClientConfig(2, 1, bench.default_workload()))
        quotient = quotient_lts(system, branching_partition(system)).lts
        pairs += [(system, quotient), (quotient, system)]
    return pairs


def test_trace_refines_with_closures_on_demand_matches_eager_closures(monkeypatch):
    def run(impl, spec):
        stats = Stats()
        result = trace_refines(impl, spec, stats=stats)
        return result.holds, result.counterexample, stats.counters

    pairs = _corpus_pairs()
    on_demand = [run(impl, spec) for impl, spec in pairs]
    monkeypatch.setattr(
        traces, "LazyReachabilityClosure",
        lambda successors: reachability_closure(len(successors), successors),
    )
    assert [run(impl, spec) for impl, spec in pairs] == on_demand
    assert any(not holds for holds, _, _ in on_demand)
    assert any(holds for holds, _, _ in on_demand)
