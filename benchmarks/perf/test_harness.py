"""Tests of the benchmark harness itself; no workload runs.

    python3 -m pytest benchmarks/perf -q
"""

import json
import sys
from pathlib import Path

import pytest

import checks
import compare
import run
import summary
import traced

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

LIN = {"id": "lin-hm_list", "argv": ["lin", "hm_list"], "exit": 0,
       "states": 37269, "quotient": 512, "median_s": 2.5}
LIN_OUTPUT = ("== 9-2. HM lock-free list (revised) | linearizability (quotient) ==\n"
              "states 37269 -> quotient 512 (72.8x)\n"
              "linearizable: TRUE  (2.24s)\n")


# -- statistics ---------------------------------------------------------

def test_median_geomean_and_quartiles():
    assert summary.median([3.0, 1.0, 2.0]) == 2.0
    assert summary.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    values = [float(v) for v in range(1, 11)]
    assert summary.quartiles(values) == pytest.approx((2.75, 5.5, 8.25))
    assert summary.quartiles([4.0]) == (4.0, 4.0, 4.0)


# -- comparison verdicts --------------------------------------------------

BASE = [10.0 + 0.1 * i for i in range(10)]


def test_clear_win_is_improved():
    assert compare.classify(BASE, [0.8 * b for b in BASE], 0.1, "lower") == "improved"
    assert compare.classify(BASE, [1.2 * b for b in BASE], 0.1, "higher") == "improved"


def test_wobble_within_bound_is_unchanged():
    assert compare.classify(BASE, [1.03 * b for b in BASE], 0.1, "lower") == "unchanged"
    assert compare.classify(BASE, list(reversed(BASE)), 0.1, "lower") == "unchanged"


def test_regression_beyond_bound():
    assert compare.classify(BASE, [1.2 * b for b in BASE], 0.1, "lower") == "regressed"


def test_wide_spread_is_unresolved():
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0]
    assert compare.classify(wide, [1.1 * w for w in wide], 0.1, "lower") == "unresolved"


def test_gain_on_too_few_pairs_is_no_claim():
    assert compare.classify(BASE[:5], [0.8 * b for b in BASE[:5]], 0.1, "lower") == "unchanged"


def _run_file(suite_s, failed=0):
    metrics = {"setup_s": 0.3, "suite_s": suite_s, "case_s.geomean": 1.0,
               "peak_rss_mb": 80.0}
    return {"workloads": {"w": {"metrics": metrics, "attempted": 10, "failed": failed}}}


def test_failed_frac_rise_regresses_and_sets_exit_status(tmp_path):
    base = [_run_file(9.0 + 0.01 * i) for i in range(3)]
    change = [_run_file(9.0 + 0.01 * i, failed=1 if i == 0 else 0) for i in range(3)]
    rows = compare.compare(base, change, BENCH)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts["failed_frac"] == "regressed"
    assert verdicts["suite_s"] == "unchanged"
    paths = []
    for i, data in enumerate(base + change):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    assert compare.main(paths[:3] + ["--"] + paths[3:]) == 1
    assert compare.main(paths[:3] + ["--"] + paths[:3]) == 0


# -- answer checks ------------------------------------------------------

def test_correct_output_passes():
    assert checks.check_output(LIN, LIN["argv"], 0, LIN_OUTPUT) == []


def test_each_kind_of_wrong_answer_is_one_failure(tmp_path):
    aut = tmp_path / "t.aut"
    aut.write_text("des (0, 0, 1)\n")
    explore = {"id": "explore-t", "argv": ["explore", "treiber", "--out", str(aut)],
               "exit": 0, "states": 1, "transitions": 0, "sha256": "0" * 64}
    wrong = [
        checks.check_output(LIN, LIN["argv"], 1, LIN_OUTPUT),
        checks.check_output(LIN, LIN["argv"], 0, LIN_OUTPUT.replace("37269", "37268")),
        checks.check_output(explore, explore["argv"], 0,
                            f"treiber: 1 states, 0 transitions -> {aut}\n"),
        checks.check_output(LIN, LIN["argv"], None, "", timed_out=True),
    ]
    for problems in wrong:
        assert checks.tally([problems]) == (1, 1)
    # Several things wrong with one execution are still one failure.
    both = checks.check_output(LIN, LIN["argv"], 1, "")
    assert len(both) > 1 and checks.tally([both, []]) == (2, 1)


def test_false_verdict_needs_a_counterexample_from_any_lane():
    command = {"id": "bug", "argv": ["lin", "hm_list_buggy", "--on-the-fly"], "exit": 1}
    quotient_lane = ("on-the-fly early exit: mismatch after expanding 452 states\n"
                     "linearizable: FALSE  (0.03s)\n<initial state>\n  \"x\"\n")
    reachability_lane = ("on-the-fly: expanded 452 of 495 interned states\n"
                         "states 495 -> product 496 (40 monitor sets)\n"
                         "linearizable: FALSE  (0.02s)\n<initial state>\n  \"x\"\n")
    for output in (quotient_lane, reachability_lane):
        assert checks.check_output(command, command["argv"], 1, output) == []
    assert checks.check_output(command, command["argv"], 1,
                               "linearizable: FALSE  (0.02s)\n") != []


def test_command_that_outlives_its_timeout_is_killed(tmp_path):
    execution = run.run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                                {}, 0.3, tmp_path / "log")
    assert execution.timed_out and execution.seconds < 5


# -- traced run isolation ---------------------------------------------------

def test_missing_or_raising_entry_point_is_a_layer_error():
    tracer = traced.Tracer(enabled=True)
    with pytest.raises(traced.LayerError) as missing:
        tracer.call("core.reduce", "json:no_such_function")
    assert missing.value.span == "core.reduce"
    with pytest.raises(traced.LayerError) as raising:
        tracer.call("core.refine", "json:loads", "not json")
    assert raising.value.span == "core.refine"


def test_failing_layer_nulls_only_its_metrics(monkeypatch):
    def broken(t, args, command):
        t.call("core.reduce", "json:no_such_function")

    def working(t, args, command):
        t.call("core.traces", "json:dumps", [])
        return {"exit": 0}

    monkeypatch.setattr(traced, "REPLAYS", {"lin": broken, "lockfree": working})
    commands = [{"id": "a", "argv": ["lin", "x"], "exit": 0},
                {"id": "b", "argv": ["lockfree", "y"], "exit": 0}]
    done = traced.run_pass(commands, "", "", enabled=True)
    assert [error["span"] for error in done.errors] == ["core.reduce"]
    assert done.mismatches == []
    metrics = traced.layer_metrics(done.tracer)
    traced.null_failed_layers(metrics, done.errors)
    assert metrics["core.reduce.s"] is None and metrics["core.reduce.removed_frac"] is None
    assert metrics["core.traces.s"] > 0


def test_failed_traced_run_leaves_end_to_end_numbers_alone(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "run_process", lambda *a, **k: run.Execution(
        1.0, 1, 10.0, "Traceback: boom\n", False))
    layers = run.traced_layers("paper-suite", {}, None, tmp_path)
    assert layers["metrics"] == {} and layers["errors"]
    result = {"metrics": {"suite_s": 9.0}, "layers": layers["metrics"]}
    per_layer = run.metric_entries({"w": result}, BENCH, trace=True)
    assert all(entry["value"] is None for entry in per_layer.values())
    end_to_end = run.metric_entries({"w": result}, BENCH, trace=False)
    assert end_to_end["suite_s"]["value"] == 9.0


# -- benchmark definition ---------------------------------------------------

def test_metric_names_match_benchmark_json():
    produced = set(traced.layer_metrics(traced.Tracer(enabled=True)))
    produced |= {"cli.startup_s", "cli.residual_frac", "trace.overhead_frac"}
    assert produced == {metric["name"] for metric in BENCH["per_layer"]}
    for names in traced.SPAN_METRICS.values():
        assert set(names) <= produced


def test_expected_answers_cover_every_workload():
    expected = checks.load_expected()
    assert list(expected["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for spec in expected["workloads"].values():
        for command in spec["commands"]:
            argv = checks.render_argv(command, "IN", "WORK")
            assert checks.expected_lines(command, argv)
