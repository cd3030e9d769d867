"""On-the-fly verification: streaming explorer + the fused reachability lane.

Three layers of coverage for the streaming refactor:

* unit contracts of :class:`repro.lang.StreamingExplorer` (drain
  equality with the classic explorer, demand expansion, freeze
  semantics);
* registry-wide parity: for every object in the registry, the
  on-the-fly lane must return exactly the verdict of the full
  reachability search and of the full quotient pipeline (which
  ``check_linearizability(on_the_fly=True)`` delegates to the lane);
* witness validity: every early-exit FALSE counterexample must replay
  as an implementation trace the specification cannot produce
  (deterministically on the buggy registry objects, and property-based
  over random programs).
"""

import pytest
from hypothesis import given

from repro.core.aut import dumps_aut
from repro.lang import (
    ClientConfig,
    ExpansionContext,
    StreamingExplorer,
    atomic_spec,
    explore,
    spec_lts,
)
from repro.objects import BENCHMARKS, get
from repro.testing.generators import program_strategy
from repro.testing.oracles import is_trace_of
from repro.util.budget import BudgetExhausted
from repro.util.metrics import Stats
from repro.verify import (
    check_linearizability,
    check_linearizability_reachability,
)
from repro.verify.job import build_request, run_job

#: (threads, ops) per object; default 2x2, heavy objects at 2x1 (same
#: policy as the full-exploration parity suite).
_SMALL_BOUNDS = {
    "dglm_queue": (2, 1),
    "hm_list": (2, 1),
    "lazy_list": (2, 1),
    "ms_queue": (2, 1),
    "optimistic_list": (2, 1),
}

CASES = [
    (key, *_SMALL_BOUNDS.get(key, (2, 2))) for key in sorted(BENCHMARKS)
]


def _bench_config(key, threads=2, ops=2):
    bench = get(key)
    program = bench.build(threads)
    config = ClientConfig(
        num_threads=threads,
        ops_per_thread=ops,
        workload=bench.default_workload(),
    )
    return bench, program, config


# ----------------------------------------------------------------------
# StreamingExplorer unit contracts
# ----------------------------------------------------------------------

def test_drain_freeze_is_bit_identical_to_classic_explore():
    _, program, config = _bench_config("treiber")
    classic = explore(program, config)
    explorer = StreamingExplorer(ExpansionContext(program, config))
    events = 0
    while (batch := explorer.expand_next()) is not None:
        events += len(batch)
    assert explorer.done
    assert events == classic.num_transitions
    assert dumps_aut(explorer.freeze()) == dumps_aut(classic)


def test_events_carry_stable_interned_ids():
    _, program, config = _bench_config("newcas", ops=1)
    explorer = StreamingExplorer(ExpansionContext(program, config))
    seen = []
    while (batch := explorer.expand_next()) is not None:
        seen.extend(batch)
    frozen = explorer.freeze()
    labels = frozen.action_labels
    streamed = {(src, label, dst) for src, label, dst in seen}
    materialized = {
        (src, labels[aid], dst) for src, aid, dst in frozen.transitions()
    }
    assert streamed == materialized


def test_freeze_mid_stream_is_a_prefix():
    _, program, config = _bench_config("treiber")
    explorer = StreamingExplorer(ExpansionContext(program, config))
    for _ in range(10):
        assert explorer.expand_next() is not None
    partial = explorer.freeze()
    explorer.drain()
    full = explorer.freeze()
    assert partial.num_states <= full.num_states
    assert partial.num_transitions < full.num_transitions
    # interning stability: the partial prefix's transitions all appear
    # verbatim (same ids, same labels) in the drained system
    partial_edges = {
        (s, partial.action_labels[a], d) for s, a, d in partial.transitions()
    }
    full_edges = {
        (s, full.action_labels[a], d) for s, a, d in full.transitions()
    }
    assert partial_edges <= full_edges


def test_successors_of_requires_cache_edges():
    _, program, config = _bench_config("treiber", ops=1)
    explorer = StreamingExplorer(ExpansionContext(program, config))
    with pytest.raises(ValueError):
        explorer.successors_of(explorer.init_id)


def test_demand_expansion_interleaves_with_drain():
    _, program, config = _bench_config("treiber", ops=1)
    classic = explore(program, config)
    explorer = StreamingExplorer(
        ExpansionContext(program, config), cache_edges=True
    )
    # expand the initial state out of frontier order, twice (memoized)
    first = explorer.successors_of(explorer.init_id)
    assert first and explorer.is_expanded(explorer.init_id)
    assert explorer.successors_of(explorer.init_id) is first
    explorer.drain()
    # demand expansion must not duplicate or reorder the final system
    assert explorer.freeze().num_states == classic.num_states
    assert explorer.freeze().num_transitions == classic.num_transitions


def test_max_states_cap_raises_mid_stream():
    from repro.lang.client import StateExplosion

    _, program, config = _bench_config("treiber")
    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=50,
    )
    explorer = StreamingExplorer(ExpansionContext(program, capped))
    with pytest.raises((StateExplosion, BudgetExhausted)):
        explorer.drain()


# ----------------------------------------------------------------------
# registry-wide on-the-fly vs full-exploration parity (both engines)
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "key,threads,ops", CASES, ids=[f"{k}_{t}x{o}" for k, t, o in CASES]
)
def test_onthefly_reachability_matches_full(key, threads, ops):
    bench = get(key)
    workload = bench.default_workload()
    full = check_linearizability_reachability(
        bench.build(threads), bench.spec(),
        num_threads=threads, ops_per_thread=ops, workload=workload,
    )
    fused = check_linearizability_reachability(
        bench.build(threads), bench.spec(),
        num_threads=threads, ops_per_thread=ops, workload=workload,
        on_the_fly=True,
    )
    assert fused.on_the_fly
    assert fused.verdict == full.verdict, (
        f"{key} at {threads}x{ops}: fused says {fused.verdict}, "
        f"full exploration says {full.verdict}"
    )
    if fused.linearizable is False:
        assert fused.counterexample
        assert fused.states_expanded is not None
        assert fused.states_expanded <= full.impl_states


@pytest.mark.parametrize(
    "key,threads,ops", CASES, ids=[f"{k}_{t}x{o}" for k, t, o in CASES]
)
def test_onthefly_quotient_matches_full(key, threads, ops):
    bench = get(key)
    workload = bench.default_workload()
    full = check_linearizability(
        bench.build(threads), bench.spec(),
        num_threads=threads, ops_per_thread=ops, workload=workload,
    )
    fused = check_linearizability(
        bench.build(threads), bench.spec(),
        num_threads=threads, ops_per_thread=ops, workload=workload,
        on_the_fly=True,
    )
    # the quotient entry point delegates on-the-fly runs to the one
    # streaming lane, which must agree with the full quotient pipeline
    assert fused.method == "reachability" and fused.on_the_fly
    assert fused.verdict == full.verdict, (
        f"{key} at {threads}x{ops}: on-the-fly says {fused.verdict}, "
        f"full pipeline says {full.verdict}"
    )
    assert fused.states_expanded <= full.impl_states


# ----------------------------------------------------------------------
# early-exit FALSE witnesses replay as impl traces the spec cannot make
# ----------------------------------------------------------------------

def _assert_valid_witness(program, spec, threads, ops, workload, witness):
    impl = explore(program, ClientConfig(threads, ops, workload))
    spec_system = spec_lts(spec, threads, ops, workload)
    assert is_trace_of(impl, list(witness)), (
        "early-exit witness is not an implementation trace"
    )
    assert not is_trace_of(spec_system, list(witness)), (
        "early-exit witness is a specification trace (so it IS linearizable)"
    )


def test_early_exit_fires_on_hm_list_buggy_with_valid_witness():
    bench = get("hm_list_buggy")
    workload = bench.default_workload()
    result = check_linearizability_reachability(
        bench.build(2), bench.spec(),
        num_threads=2, ops_per_thread=2, workload=workload,
        on_the_fly=True,
    )
    assert result.verdict == "FALSE"
    # the search stopped at the violation, long before the stream drained
    assert result.states_expanded < result.impl_states
    _assert_valid_witness(
        bench.build(2), bench.spec(), 2, 2, workload, result.counterexample
    )


@given(program_strategy())
def test_random_early_exit_witnesses_are_valid(drawn):
    program, workload = drawn
    spec = atomic_spec(program)
    try:
        result = check_linearizability_reachability(
            program, spec,
            num_threads=2, ops_per_thread=1, workload=workload,
            max_states=2000, on_the_fly=True,
        )
    except BudgetExhausted:
        return
    if result.verdict != "FALSE":
        return
    _assert_valid_witness(
        program, spec, 2, 1, workload, result.counterexample
    )


# ----------------------------------------------------------------------
# --method both: one exploration, two engines (satellite fix)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("key", ["newcas", "hm_list_buggy"])
def test_both_shares_one_exploration(key):
    sinks = {}
    result = run_job(
        build_request("lin", key, threads=2, ops=2, method="both"),
        sink=lambda name: sinks.setdefault(name, Stats()),
    )
    quotient, reach = result["quotient"], result["reachability"]
    assert quotient["verdict"] == reach["verdict"]
    assert quotient["impl_states"] == reach["impl_states"]
    sq = sinks["linearizability t=2 ops=2 v=2"]
    sr = sinks["reachability t=2 ops=2 v=2"]
    # both engines must record that they consumed the shared system
    assert any("shared_impl_states" in k for k in sq.counters), sq.counters
    assert any("shared_impl_states" in k for k in sr.counters), sr.counters
    # both results carry the one shared exploration's wall-clock time
    assert quotient["seconds"] > 0 and reach["seconds"] > 0
