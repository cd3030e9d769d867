"""Unit tests for the metrics sink + the pay-for-what-you-use guard."""

import statistics
import time

import pytest

from repro.core.partition import refine_to_fixpoint
from repro.lang import ClientConfig
from repro.lang.client import _explore, explore
from repro.objects import get
from repro.util.metrics import Stats, peak_rss_kb, stage


def test_stage_nesting_builds_paths():
    stats = Stats()
    with stats.stage("quotient"):
        time.sleep(0.001)
        with stats.stage("refinement"):
            time.sleep(0.001)
    assert set(stats.stage_seconds) == {"quotient", "quotient/refinement"}
    assert stats.stage_seconds["quotient"] >= stats.stage_seconds["quotient/refinement"] > 0
    # Only the top-level stage counts toward the total.
    assert stats.total_seconds == stats.stage_seconds["quotient"]


def test_stage_reentry_accumulates():
    stats = Stats()
    for _ in range(3):
        with stats.stage("explore"):
            stats.count("states", 10)
    assert stats.counters == {"explore.states": 30}
    assert list(stats.stage_seconds) == ["explore"]


def test_stage_name_validation():
    stats = Stats()
    with pytest.raises(ValueError):
        with stats.stage("a/b"):
            pass
    with pytest.raises(ValueError):
        with stats.stage("a.b"):
            pass


def test_counters_attributed_to_active_stage():
    stats = Stats()
    stats.count("loose")
    with stats.stage("check"):
        stats.count("visited", 5)
        with stats.stage("inner"):
            stats.count("deep", 2)
    assert stats.counters == {
        "loose": 1,
        "check.visited": 5,
        "check/inner.deep": 2,
    }
    assert stats.stage_counters("check") == {"visited": 5}
    assert stats.stage_counters("check/inner") == {"deep": 2}


def test_counters_are_monotonic():
    stats = Stats()
    stats.count("n", 0)
    with pytest.raises(ValueError):
        stats.count("n", -1)


def test_merge_sums_and_maxes():
    a, b = Stats(), Stats()
    with a.stage("explore"):
        a.count("states", 1)
    with b.stage("explore"):
        b.count("states", 2)
    b.peak_rss_kb = a.peak_rss_kb + 7
    a.merge(b)
    assert a.counters == {"explore.states": 3}
    assert a.peak_rss_kb == b.peak_rss_kb


def test_rss_sampling():
    assert peak_rss_kb() > 0
    stats = Stats()
    with stats.stage("s"):
        pass
    assert stats.peak_rss_kb == pytest.approx(peak_rss_kb(), rel=0.5)


def test_to_dict_and_render():
    stats = Stats()
    with stats.stage("explore"):
        stats.count("states", 42)
    snapshot = stats.to_dict()
    assert snapshot["schema"] == Stats.SCHEMA
    assert snapshot["stages"][0]["stage"] == "explore"
    assert snapshot["counters"] == {"explore.states": 42}
    assert snapshot["total_seconds"] == stats.total_seconds
    text = stats.render(title="t")
    assert "explore" in text and "states=42" in text and "total" in text


def test_module_stage_helper_handles_none():
    with stage(None, "anything"):
        pass
    stats = Stats()
    with stage(stats, "real"):
        pass
    assert "real" in stats.stage_seconds


def test_refine_to_fixpoint_records_counters():
    stats = Stats()
    # Two states distinguished by a static signature: one sweep, one split.
    block_of = refine_to_fixpoint(
        2, lambda blocks: [(s % 2,) for s in range(2)], stats=stats
    )
    assert block_of[0] != block_of[1]
    assert stats.counters["states"] == 2
    assert stats.counters["sweeps"] >= 1
    assert stats.counters["splits"] >= 1


def test_explore_records_and_matches_uninstrumented():
    bench = get("newcas")
    config = ClientConfig(2, 1, bench.default_workload())
    stats = Stats()
    instrumented = explore(bench.build(2), config, stats=stats)
    plain = explore(bench.build(2), config)
    assert instrumented.num_states == plain.num_states
    assert instrumented.num_transitions == plain.num_transitions
    assert stats.counters["explore.states"] == plain.num_states
    assert stats.counters["explore.transitions"] == plain.num_transitions
    assert stats.stage_seconds["explore"] > 0


def test_disabled_stats_overhead_within_tolerance():
    """stats=None must take the same code path as the uninstrumented body.

    Wall times of the public wrapper with ``stats=None`` and the private
    body, in alternated pairs: in the median pair the wrapper is at most
    5% slower, plus a small epsilon for timer jitter at these
    millisecond scales.
    """
    bench = get("ms_queue")
    config = ClientConfig(2, 1, bench.default_workload())

    def run_public():
        return explore(bench.build(2), config, stats=None)

    def run_body():
        return _explore(bench.build(2), config)

    run_public(), run_body()  # warm up
    # Alternate the arms so drift in machine speed hits both equally, and
    # judge the median pair so one lucky fast sample decides nothing.
    excess = []
    for _ in range(5):
        public = _timed(run_public)
        body = _timed(run_body)
        excess.append(public - body * 1.05)
    assert statistics.median(excess) <= 0.005


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
