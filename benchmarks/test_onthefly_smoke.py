"""Bench smoke: the on-the-fly lane vs the full-exploration search.

``lin --on-the-fly`` has one lane, the streaming reachability search.
Two cases:

* ``hm_list_buggy`` 2x2 -- the seeded shallow-violation instance.  The
  *gate* is verdict agreement (both FALSE) plus the fusion's raison
  d'etre: the fused run must decide FALSE after expanding **less than
  25%** of the states the full pipeline explores.  In practice it is
  around 1-2% (a few hundred of ~36k states), so the gate has a wide
  margin while still catching a fusion that silently degenerates into
  draining the whole stream before looking at the product.
* ``treiber`` 2x2 -- a TRUE instance: the fused product search must
  exhaust the same product and agree with the full pipeline.

Shallow-bug *latency* (wall seconds to FALSE) is published in
``BENCH_onthefly.json``, not gated -- CI machines vary too much for
absolute timings, and the state-ratio gate already pins the asymptotic
win.
"""

import time

from repro.objects import get
from repro.verify import check_linearizability_reachability

#: The gated fraction: fused FALSE must expand fewer than this share of
#: the states the full pipeline materializes.
MAX_EXPANDED_FRACTION = 0.25

REPS = 3


def _run(bench, threads, ops, on_the_fly):
    start = time.perf_counter()
    result = check_linearizability_reachability(
        bench.build(threads), bench.spec(),
        num_threads=threads, ops_per_thread=ops,
        workload=bench.default_workload(),
        on_the_fly=on_the_fly,
    )
    return time.perf_counter() - start, result


def test_shallow_violation_decides_false_early(onthefly_results, bench_out):
    bench = get("hm_list_buggy")
    _run(bench, 2, 2, False)  # warm-up, untimed

    full_reps, fused_reps = [], []
    for _ in range(REPS):
        seconds, full = _run(bench, 2, 2, False)
        full_reps.append(seconds)
        seconds, fused = _run(bench, 2, 2, True)
        fused_reps.append(seconds)

    # gate 1: verdict agreement on the seeded shallow violation
    assert full.verdict == fused.verdict == "FALSE"
    assert fused.counterexample

    # gate 2: the fused run expanded < 25% of the full state count
    assert fused.states_expanded is not None
    fraction = fused.states_expanded / full.impl_states
    assert fraction < MAX_EXPANDED_FRACTION, (
        f"fused run expanded {fused.states_expanded} of "
        f"{full.impl_states} states ({fraction:.1%}) -- the on-the-fly "
        f"lane no longer exits early"
    )

    full_s, fused_s = min(full_reps), min(fused_reps)
    speedup = full_s / fused_s if fused_s else float("inf")
    onthefly_results(
        "hm_list_buggy 2x2",
        {
            "verdict": fused.verdict,
            "full_impl_states": full.impl_states,
            "fused_states_expanded": fused.states_expanded,
            "expanded_fraction": round(fraction, 4),
            "full_s": round(full_s, 6),
            "fused_s": round(fused_s, 6),
            "speedup": round(speedup, 2),
            "full_reps_s": [round(s, 6) for s in full_reps],
            "fused_reps_s": [round(s, 6) for s in fused_reps],
        },
    )
    bench_out(
        "onthefly_smoke_hm_list_buggy",
        f"on-the-fly smoke hm_list_buggy 2x2: FALSE\n"
        f"  expanded {fused.states_expanded} of {full.impl_states} states "
        f"({fraction:.1%})\n"
        f"  full={full_s:.3f}s fused={fused_s:.3f}s "
        f"speedup={speedup:.1f}x",
    )


def test_true_instance_agrees(onthefly_results):
    bench = get("treiber")
    seconds_full, full = _run(bench, 2, 2, False)
    seconds_fused, fused = _run(bench, 2, 2, True)
    assert full.verdict == fused.verdict == "TRUE"
    onthefly_results(
        "treiber 2x2",
        {
            "verdict": fused.verdict,
            "full_impl_states": full.impl_states,
            "full_s": round(seconds_full, 6),
            "fused_s": round(seconds_fused, 6),
        },
    )
