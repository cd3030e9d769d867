"""CLI tests (argument parsing + end-to-end subcommands)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ms_queue" in out
    assert "NOT lock-free" in out
    assert "14." in out


def test_verify_ok(capsys):
    code = main(["verify", "newcas", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable: TRUE" in out
    assert "lock-free: TRUE" in out
    assert "obstruction-free: TRUE" in out


def test_verify_bug_exit_code(capsys):
    code = main(["verify", "hw_queue", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "lock-free: FALSE" in out
    assert "divergence" in out


def test_verify_lock_based_skips(capsys):
    code = main(["verify", "fine_list", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipped (lock-based" in out


def test_explore_quotient_compare_round_trip(tmp_path, capsys):
    impl = str(tmp_path / "impl.aut")
    quotient = str(tmp_path / "quotient.aut")
    assert main(["explore", "newcas", "--ops", "1", "--out", impl]) == 0
    assert main(["quotient", "newcas", "--ops", "1", "--out", quotient]) == 0
    out = capsys.readouterr().out
    assert "essential internal steps" in out

    # The quotient is branching-divergence bisimilar to the system.
    code = main(["compare", impl, quotient, "--relation", "branching",
                 "--divergence"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bisimilar: True" in out

    # ... and trace-equivalent.
    assert main(["compare", impl, quotient, "--relation", "trace"]) == 0


def test_compare_trace_never_freezes_a_parsed_file(tmp_path, capsys, monkeypatch):
    # A trace comparison reads each parsed builder's rows once: freezing
    # the two inputs measured slower end to end (ms_queue 0.43 -> 0.53 s).
    import repro.core.aut as aut_module
    from repro.core import make_lts
    from repro.core.lts import LTS, FrozenLTS

    impl = str(tmp_path / "impl.aut")
    quotient = str(tmp_path / "quotient.aut")
    assert main(["explore", "newcas", "--ops", "1", "--out", impl]) == 0
    assert main(["quotient", "newcas", "--ops", "1", "--out", quotient]) == 0
    longer = str(tmp_path / "longer.aut")
    shorter = str(tmp_path / "shorter.aut")
    aut_module.write_aut(make_lts(3, 0, [(0, "x", 1), (1, "y", 2)]), longer)
    aut_module.write_aut(make_lts(2, 0, [(0, "x", 1)]), shorter)

    parsed, frozen = [], []
    read_aut, freeze, frozen_init = aut_module.read_aut, LTS.freeze, FrozenLTS.__init__

    def counting_read_aut(source):
        lts = read_aut(source)
        parsed.append(lts)
        return lts

    def counting_freeze(self):
        frozen.append(self)
        return freeze(self)

    def counting_init(self, source):
        frozen.append(source)
        frozen_init(self, source)

    monkeypatch.setattr(aut_module, "read_aut", counting_read_aut)
    monkeypatch.setattr(LTS, "freeze", counting_freeze)
    monkeypatch.setattr(FrozenLTS, "__init__", counting_init)
    capsys.readouterr()
    assert main(["compare", impl, quotient, "--relation", "trace"]) == 0
    assert main(["compare", longer, shorter, "--relation", "trace"]) == 1
    out = capsys.readouterr().out
    assert f"{longer} refines {shorter}: False" in out
    assert len({id(lts) for lts in parsed}) == 4
    assert not any(lts is source for lts in parsed for source in frozen)
    assert frozen == []


def test_compare_mismatch_explains(tmp_path, capsys):
    from repro.core import make_lts
    from repro.core.aut import write_aut

    a = str(tmp_path / "a.aut")
    b = str(tmp_path / "b.aut")
    write_aut(make_lts(2, 0, [(0, "X", 1)]), a)
    write_aut(make_lts(2, 0, [(0, "Y", 1)]), b)
    code = main(["compare", a, b])
    out = capsys.readouterr().out
    assert code == 1
    assert "bisimilar: False" in out
    assert "distinguishing experiment" in out


def test_compare_weak_and_strong(tmp_path, capsys):
    from repro.core import make_lts
    from repro.core.aut import write_aut

    a = str(tmp_path / "a.aut")
    b = str(tmp_path / "b.aut")
    write_aut(make_lts(3, 0, [(0, "tau", 1), (1, "x", 2)]), a)
    write_aut(make_lts(2, 0, [(0, "x", 1)]), b)
    assert main(["compare", a, b, "--relation", "weak"]) == 0
    assert main(["compare", a, b, "--relation", "strong"]) == 1


def _write_spin_pair(tmp_path):
    # Weakly bisimilar; only the left system diverges after "x".
    from repro.core import make_lts
    from repro.core.aut import write_aut

    a = str(tmp_path / "spin.aut")
    b = str(tmp_path / "stop.aut")
    write_aut(make_lts(2, 0, [(0, "x", 1), (1, "tau", 1)]), a)
    write_aut(make_lts(2, 0, [(0, "x", 1)]), b)
    return a, b


def test_compare_weak_divergence_is_divergence_sensitive(tmp_path, capsys):
    a, b = _write_spin_pair(tmp_path)
    assert main(["compare", a, b, "--relation", "weak"]) == 0
    assert "weak bisimilar: True" in capsys.readouterr().out
    assert main(["compare", a, b, "--relation", "weak", "--divergence"]) == 1
    assert "weak-divergence bisimilar: False" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--relation", "strong", "--divergence"],
    ["--relation", "trace", "--divergence"],
    ["--relation", "weak", "--reduce"],
    ["--relation", "strong", "--reduce"],
    ["--relation", "trace", "--reduce"],
])
def test_compare_rejects_flags_its_relation_ignores(flags, tmp_path, capsys):
    a, b = _write_spin_pair(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compare", a, b, *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "repro compare: error:" in err
    assert flags[2] in err and flags[1] in err


@pytest.mark.parametrize("relation", ["branching", "weak", "strong"])
def test_compare_stats_time_the_union(relation, tmp_path, capsys):
    import json

    a, b = _write_spin_pair(tmp_path)
    path = str(tmp_path / "stats.json")
    main(["compare", a, b, "--relation", relation, "--json", path])
    stages = [entry["stage"] for entry in
              json.loads(open(path).read())["pipelines"]["compare"]["stages"]]
    assert stages[:3] == ["parse", "union", "refinement"]


@pytest.mark.parametrize("same, stages", [(False, ["explain"]), (True, [])])
def test_compare_stats_time_the_distinguishing_experiment(same, stages,
                                                          tmp_path, capsys):
    # A branching FALSE explains itself under an `explain` stage; a TRUE
    # runs no experiment.
    import json

    spin, stop = _write_spin_pair(tmp_path)
    path = str(tmp_path / "stats.json")
    code = main(["compare", spin, spin if same else stop, "--divergence",
                 "--json", path])
    assert code == (0 if same else 1)
    assert ("distinguishing experiment" in capsys.readouterr().out) != same
    recorded = [entry["stage"] for entry in
                json.loads(open(path).read())["pipelines"]["compare"]["stages"]]
    assert [stage for stage in recorded if stage == "explain"] == stages


def test_compare_false_explains_from_its_own_refinement(tmp_path, capsys,
                                                       monkeypatch):
    # The distinguishing experiment replays the split log of the
    # refinement that decided FALSE: the splitter runs exactly once.
    from repro.core import branching, splitter

    spin, stop = _write_spin_pair(tmp_path)
    calls = []
    original = splitter.branching_splitter

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(splitter, "branching_splitter", counting)
    monkeypatch.setattr(branching, "branching_splitter", counting)
    code = main(["compare", spin, stop, "--divergence", "--reduce"])
    out = capsys.readouterr().out
    assert code == 1
    assert "distinguishing experiment" in out
    assert "<divergence>" in out
    assert len(calls) == 1


def test_lockfree_stats_time_the_union_under_check(tmp_path, capsys):
    import json

    path = str(tmp_path / "stats.json")
    assert main(["lockfree", "newcas", "--ops", "1", "--json", path]) == 0
    pipelines = json.loads(open(path).read())["pipelines"]
    [stages] = [[entry["stage"] for entry in pipeline["stages"]]
                for pipeline in pipelines.values()]
    assert "check/union" in stages
    assert stages.index("check/union") < stages.index("check/refinement")


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "not_a_benchmark"])


def test_verify_stats_table(capsys):
    code = main(["verify", "newcas", "--threads", "2", "--ops", "1",
                 "--stats"])
    out = capsys.readouterr().out
    assert code == 0
    assert "-- linearizability t=2 ops=1 v=2 --" in out
    assert "-- lock-freedom t=2 ops=1 v=2 --" in out
    assert "-- obstruction-freedom t=2 ops=1 v=2 --" in out
    for stage_name in ("explore", "quotient", "refinement", "check", "total"):
        assert stage_name in out
    # "splits" is the refinement counter of the splitter engine.
    assert "states=" in out and "splits=" in out and "peak_rss_kb=" in out


def test_verify_json_dump(tmp_path, capsys):
    import json

    path = str(tmp_path / "stats.json")
    code = main(["verify", "newcas", "--threads", "2", "--ops", "1",
                 "--json", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "-- linearizability" not in out  # table only with --stats
    payload = json.loads(open(path).read())
    assert payload["schema"] == "repro.cli-stats/v1"
    assert payload["command"] == "verify"
    assert payload["target"] == "newcas"
    assert payload["config"]["threads"] == 2
    pipelines = payload["pipelines"]
    assert set(pipelines) == {
        "linearizability t=2 ops=1 v=2", "lock-freedom t=2 ops=1 v=2",
        "obstruction-freedom t=2 ops=1 v=2",
    }
    lin = pipelines["linearizability t=2 ops=1 v=2"]
    assert lin["schema"] == "repro.stats/v1"
    stages = {entry["stage"] for entry in lin["stages"]}
    assert {"explore", "quotient", "quotient/refinement", "check"} <= stages
    assert lin["counters"]["explore.states"] > 0
    assert lin["total_seconds"] > 0


@pytest.mark.parametrize("key", ["newcas", "hw_queue", "fine_list"])
def test_verify_explores_once(key, tmp_path, capsys):
    # The three engines share one exploration, timed in the first sink.
    import json

    path = str(tmp_path / "stats.json")
    main(["verify", key, "--ops", "1", "--json", path])
    pipelines = json.loads(open(path).read())["pipelines"]
    explores = [name for name, pipeline in pipelines.items()
                for entry in pipeline["stages"] if entry["stage"] == "explore"]
    assert explores == ["linearizability t=2 ops=1 v=2"]


def test_verify_without_stats_prints_no_table(capsys):
    main(["verify", "newcas", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert "-- linearizability" not in out
    assert "peak_rss_kb" not in out


def test_explore_and_quotient_stats(tmp_path, capsys):
    impl = str(tmp_path / "impl.aut")
    quotient = str(tmp_path / "q.aut")
    assert main(["explore", "newcas", "--ops", "1", "--out", impl,
                 "--stats"]) == 0
    out = capsys.readouterr().out
    assert "-- explore --" in out and "states=" in out
    assert main(["quotient", "newcas", "--ops", "1", "--out", quotient,
                 "--stats"]) == 0
    out = capsys.readouterr().out
    assert "-- quotient --" in out and "refinement" in out

    code = main(["compare", impl, quotient, "--relation", "trace", "--stats"])
    out = capsys.readouterr().out
    assert code == 0
    assert "-- compare --" in out
    assert "parse" in out and "check" in out


# ----------------------------------------------------------------------
# run budgets, three-valued exits, checkpoint/resume (docs/ROBUSTNESS.md)
# ----------------------------------------------------------------------

def test_lin_true_exits_zero(capsys):
    code = main(["lin", "newcas", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable: TRUE" in out


def test_lin_zero_deadline_exits_unknown(capsys):
    code = main(["lin", "ms_queue", "--deadline", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "UNKNOWN" in out
    assert "deadline" in out
    assert "phase 'explore'" in out


def test_lin_degrade_reports_both_attempts(capsys):
    code = main(["lin", "ms_queue", "--deadline", "0", "--degrade"])
    out = capsys.readouterr().out
    assert code == 2
    assert "degrade: retrying" in out
    assert "degraded verdict" in out


def test_lin_false_exits_one(capsys):
    code = main(["lin", "hm_list_buggy", "--threads", "2", "--ops", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "linearizable: FALSE" in out


def test_lockfree_exit_codes(capsys):
    assert main(["lockfree", "newcas", "--ops", "1"]) == 0
    assert "lock-free: TRUE" in capsys.readouterr().out
    assert main(["lockfree", "hw_queue", "--ops", "1"]) == 1
    assert "lock-free: FALSE" in capsys.readouterr().out
    assert main(["lockfree", "ms_queue", "--deadline", "0"]) == 2
    assert "UNKNOWN" in capsys.readouterr().out


def test_verify_unknown_exits_two(capsys):
    code = main(["verify", "newcas", "--ops", "1", "--deadline", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "UNKNOWN" in out


def test_lin_stats_flushed_on_unknown(tmp_path, capsys):
    import json

    path = str(tmp_path / "stats.json")
    code = main(["lin", "ms_queue", "--deadline", "0", "--json", path])
    capsys.readouterr()
    assert code == 2
    payload = json.loads(open(path).read())
    assert payload["command"] == "lin"
    assert "linearizability t=2 ops=2 v=2" in payload["pipelines"]


def test_explore_checkpoint_resume_bit_identical(tmp_path, capsys):
    full = str(tmp_path / "full.aut")
    resumed = str(tmp_path / "resumed.aut")
    ckpt = str(tmp_path / "t.ckpt")
    assert main(["explore", "treiber", "--out", full]) == 0
    code = main(["explore", "treiber", "--out", resumed,
                 "--checkpoint", ckpt, "--max-states", "500"])
    out = capsys.readouterr().out
    assert code == 2
    assert "UNKNOWN" in out and "checkpoint left at" in out
    assert main(["explore", "treiber", "--out", resumed,
                 "--resume", ckpt]) == 0
    assert open(full).read() == open(resumed).read()


def test_explore_workers_matches_serial(tmp_path, capsys):
    serial = str(tmp_path / "serial.aut")
    sharded = str(tmp_path / "sharded.aut")
    assert main(["explore", "treiber", "--out", serial]) == 0
    assert main(["explore", "treiber", "--out", sharded,
                 "--workers", "2", "--shard-states", "16"]) == 0
    assert open(serial).read() == open(sharded).read()


def test_explore_workers_survives_injected_kill(tmp_path, capsys):
    serial = str(tmp_path / "serial.aut")
    faulted = str(tmp_path / "faulted.aut")
    assert main(["explore", "treiber", "--out", serial]) == 0
    assert main(["explore", "treiber", "--out", faulted,
                 "--workers", "2", "--fault-plan", "kill:0@10",
                 "--shard-states", "16"]) == 0
    assert open(serial).read() == open(faulted).read()


def test_explore_workers_hang_checkpoints_and_resumes(tmp_path, capsys):
    # A stalled worker under a global deadline: the run must exit 2 with
    # a salvaged checkpoint from which a serial resume completes.
    serial = str(tmp_path / "serial.aut")
    resumed = str(tmp_path / "resumed.aut")
    ckpt = str(tmp_path / "hang.ckpt")
    assert main(["explore", "treiber", "--out", serial]) == 0
    code = main(["explore", "treiber", "--out", resumed,
                 "--workers", "2", "--fault-plan", "stall:0@5",
                 "--shard-states", "16", "--deadline", "2",
                 "--checkpoint", ckpt])
    out = capsys.readouterr().out
    assert code == 2
    assert "UNKNOWN" in out and "deadline" in out
    assert "checkpoint left at" in out
    assert main(["explore", "treiber", "--out", resumed,
                 "--resume", ckpt]) == 0
    assert open(serial).read() == open(resumed).read()


@pytest.mark.parametrize("command", ["lin", "lockfree"])
def test_verdict_commands_reject_the_parallel_flags(command, capsys):
    # Exploration sharding belongs to `explore` alone.
    for flag, value in (("--workers", "2"), ("--fault-plan", "kill:0@5"),
                        ("--shard-states", "16"),
                        ("--heartbeat-timeout", "5")):
        with pytest.raises(SystemExit) as exc:
            main([command, "newcas", "--ops", "1", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_degrade_descends_the_workload_lattice(capsys):
    code = main(["lin", "ms_queue", "--deadline", "0", "--degrade",
                 "--degrade-steps", "2"])
    out = capsys.readouterr().out
    assert code == 2
    # ops shrinks before values before threads, one rung per retry.
    assert "--threads 2 --ops 1 --values 2" in out
    assert "--threads 2 --ops 1 --values 1" in out
    assert out.count("degrade: retrying") == 2


def test_degrade_steps_bounds_the_descent(capsys):
    code = main(["lin", "ms_queue", "--deadline", "0", "--degrade",
                 "--degrade-steps", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("degrade: retrying") == 1


def test_lin_spec_checkpoint_then_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "spec.ckpt")
    assert main(["lin", "newcas", "--threads", "2", "--ops", "1",
                 "--spec-checkpoint", ckpt]) == 0
    capsys.readouterr()
    import os
    assert os.path.exists(ckpt)
    code = main(["lin", "newcas", "--threads", "2", "--ops", "1",
                 "--spec-resume", ckpt])
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable: TRUE" in out


def test_lin_degrade_rung_skips_stale_spec_resume(tmp_path, capsys):
    # A degrade rung shrinks (threads, ops, values), so the original
    # config's spec checkpoint no longer matches there; the rung must
    # regenerate the spec from scratch instead of crashing on a
    # CheckpointMismatch.
    ckpt = str(tmp_path / "spec.ckpt")
    assert main(["lin", "newcas", "--threads", "2", "--ops", "2",
                 "--spec-checkpoint", ckpt]) == 0
    capsys.readouterr()
    # --max-states exhausts the original config (impl ~1000 states) but
    # not the first degrade rung (ops 1, impl ~140 states).
    code = main(["lin", "newcas", "--threads", "2", "--ops", "2",
                 "--max-states", "600", "--degrade",
                 "--spec-resume", ckpt])
    out = capsys.readouterr().out
    assert code == 0
    assert "degrade: retrying" in out
    assert "degraded verdict: TRUE" in out


def test_lin_method_reachability_true_exits_zero(capsys):
    code = main(["lin", "newcas", "--threads", "2", "--ops", "1",
                 "--method", "reachability"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(reachability)" in out
    assert "linearizable: TRUE" in out
    assert "product" in out


def test_lin_method_reachability_false_exits_one(capsys):
    code = main(["lin", "hm_list_buggy", "--threads", "2", "--ops", "2",
                 "--method", "reachability"])
    out = capsys.readouterr().out
    assert code == 1
    assert "linearizable: FALSE" in out
    assert "no linearization" in out


def test_lin_method_both_agree_exits_zero(capsys):
    code = main(["lin", "newcas", "--threads", "2", "--ops", "1",
                 "--method", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[quotient]" in out
    assert "[reachability]" in out
    assert "both engines agree" in out


def test_lin_onthefly_reachability_false_expands_fraction(capsys):
    code = main(["lin", "hm_list_buggy", "--threads", "2", "--ops", "2",
                 "--method", "reachability", "--on-the-fly"])
    out = capsys.readouterr().out
    assert code == 1
    assert "linearizable: FALSE" in out
    assert "on-the-fly: expanded" in out


def test_lin_onthefly_quotient_early_exit(capsys):
    # --on-the-fly runs the streaming reachability search whatever
    # --method says, and the header names the method that ran.
    code = main(["lin", "hm_list_buggy", "--threads", "2", "--ops", "2",
                 "--method", "quotient", "--on-the-fly"])
    out = capsys.readouterr().out
    assert code == 1
    assert "linearizability (reachability)" in out
    assert "linearizable: FALSE" in out
    assert "on-the-fly: expanded" in out


def _weak_trace_of_stream(explorer, labels):
    """Whether the rendered ``labels`` form a weak trace of the stream,
    walking only the states the trace reaches (demand expansion)."""
    from repro.core import TAU

    def closure(states):
        seen, stack = set(states), list(states)
        while stack:
            for _aid, label, dst in explorer.successors_of(stack.pop()):
                if label == TAU and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    current = closure({explorer.init_id})
    for rendered in labels:
        current = closure({
            dst
            for state in current
            for _aid, label, dst in explorer.successors_of(state)
            if str(label) == rendered
        })
        if not current:
            return False
    return True


def test_lin_onthefly_never_builds_the_spec(tmp_path, capsys):
    import json
    import re

    from repro.lang import ClientConfig, ExpansionContext, StreamingExplorer, spec_lts
    from repro.objects import get
    from repro.testing.oracles import is_trace_of

    path = tmp_path / "stats.json"
    code = main(["lin", "hm_list_buggy", "--on-the-fly", "--threads", "3",
                 "--ops", "2", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "linearizable: FALSE" in out
    witness = re.findall(r'^  "(.*)"$', out, flags=re.MULTILINE)
    assert witness

    # No stage of the run generated the specification LTS.
    payload = json.loads(path.read_text())
    stages = {
        entry["stage"]
        for pipeline in payload["pipelines"].values()
        for entry in pipeline["stages"]
    }
    assert stages and not any(s.split("/")[0] == "spec" for s in stages)

    # The witness is an implementation trace (walked on demand: the full
    # 3x2 system has over a million states) the spec cannot produce.
    bench = get("hm_list_buggy")
    workload = bench.default_workload()
    explorer = StreamingExplorer(
        ExpansionContext(bench.build(3), ClientConfig(3, 2, workload)),
        cache_edges=True,
    )
    assert _weak_trace_of_stream(explorer, witness)
    spec_system = spec_lts(bench.spec(), 3, 2, workload)
    by_name = {str(label): label for label in spec_system.action_labels}
    assert all(rendered in by_name for rendered in witness)
    assert not is_trace_of(spec_system, [by_name[r] for r in witness])


def test_lin_onthefly_with_both_prints_disable_note(capsys):
    code = main(["lin", "newcas", "--threads", "2", "--ops", "1",
                 "--method", "both", "--on-the-fly"])
    out = capsys.readouterr().out
    assert code == 0
    assert "--on-the-fly is disabled with --method both" in out
    assert "both engines agree" in out


def test_lin_method_both_disagreement_exits_three(capsys, monkeypatch):
    # Break the monitor so reachability wrongly reports TRUE on the
    # buggy list while the quotient engine still says FALSE: the CLI
    # must refuse to pick a winner and exit with the dedicated code.
    from repro.util.budget import EXIT_DISAGREEMENT
    from repro.verify import reachability

    monkeypatch.setattr(reachability, "_SKIP_VIOLATION_STATE", True)
    code = main(["lin", "hm_list_buggy", "--threads", "2", "--ops", "2",
                 "--method", "both"])
    out = capsys.readouterr().out
    assert code == EXIT_DISAGREEMENT == 3
    assert "ERROR" in out and "disagree" in out


def test_fuzz_vacuous_run_exits_nonzero(capsys):
    # n=0 with the program mix (and hence the canaries) disabled checks
    # nothing at all; that must never count as a pass, least of all
    # with --expect-bug.
    code = main(["fuzz", "--n", "0", "--no-programs"])
    out = capsys.readouterr().out
    assert code == 1
    assert "vacuous" in out

    code = main(["fuzz", "--n", "0", "--no-programs", "--expect-bug",
                 "--mutate", "skip-violation-state"])
    out = capsys.readouterr().out
    assert code == 1
    assert "vacuous" in out


def test_fuzz_monitor_mutation_is_caught(capsys):
    code = main(["fuzz", "--seed", "0", "--n", "0",
                 "--mutate", "drop-monitor-transition", "--expect-bug"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict:lin-engines" in out


def test_keyboard_interrupt_in_handler_exits_130(capsys, monkeypatch):
    from repro import cli

    def boom(_args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.HANDLERS, "list", boom)
    assert main(["list"]) == 130
    assert "interrupted" in capsys.readouterr().err


def test_fuzz_instance_deadline_counts_exhausted(capsys):
    code = main(["fuzz", "--seed", "3", "--n", "10",
                 "--instance-deadline", "0.0001"])
    out = capsys.readouterr().out
    # Every instance hits the deadline, so nothing was actually
    # checked -- that is a vacuous run, not a pass.  The three verdict
    # canaries and the four step-cache canaries count with the ten.
    assert code == 1
    assert "exhausted=17" in out
    assert "vacuous" in out


def test_fuzz_drop_budget_checks_mutation_is_caught(capsys):
    code = main(["fuzz", "--seed", "0", "--n", "20",
                 "--mutate", "drop-budget-checks", "--expect-bug"])
    out = capsys.readouterr().out
    assert code == 0
    assert "budget:governance" in out


def _loaded_modules(argv):
    """``(exit code, sys.modules)`` of ``main(argv)`` in a fresh interpreter."""
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def _within(modules, package):
    return {name for name in modules
            if name == package or name.startswith(package + ".")}


def test_each_command_loads_only_its_modules(tmp_path):
    # Start-up is mostly compiling the imported modules (no bytecode
    # cache is written under PYTHONDONTWRITEBYTECODE), so a command may
    # load only what its own code path runs.  Each row: argv, exit code,
    # packages it never loads, and the only modules it may load from
    # some packages.
    left, right = tmp_path / "a.aut", tmp_path / "b.aut"
    left.write_text('des (0, 1, 2)\n(0, "a", 1)\n')
    right.write_text('des (0, 2, 3)\n(0, "i", 1)\n(1, "a", 2)\n')
    table = [
        (["list"], 0, ["numpy", "repro.lang"], {}),
        (["compare", str(left), str(right)], 0, ["repro.lang"], {}),
        (["explore", "newcas", "--ops", "1", "--out", str(tmp_path / "n.aut")],
         0, ["numpy", "repro.parallel", "repro.testing"], {}),
        (["lin", "hm_list", "--ops", "1"], 0,
         ["repro.parallel", "repro.testing"], {}),
        (["lockfree", "newcas", "--ops", "1"], 0,
         ["repro.parallel", "repro.testing"], {}),
        (["verify", "newcas", "--ops", "1"], 0,
         ["repro.parallel", "repro.testing", "repro.service", "repro.ltl"], {}),
        (["lin", "hm_list_buggy", "--on-the-fly"], 1,
         ["numpy", "pickle", "repro.testing", "repro.parallel",
          "repro.service", "repro.ltl"],
         {"repro.core": {"repro.core", "repro.core.lts"},
          "repro.objects": {"repro.objects", "repro.objects.registry",
                            "repro.objects.hm_list"}}),
    ]
    for argv, expected_code, never, only in table:
        code, modules = _loaded_modules(argv)
        assert code == expected_code, argv
        for package in never:
            assert not _within(modules, package), (argv, sorted(_within(modules, package)))
        for package, allowed in only.items():
            assert _within(modules, package) <= allowed, (
                argv, sorted(_within(modules, package) - allowed)
            )


def test_fuzz_rejects_an_unknown_mutation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--mutate", "bogus"])
    assert exc.value.code == 2
    assert "argument --mutate: invalid choice: 'bogus'" in capsys.readouterr().err


def test_fuzz_accepts_every_mutation():
    from repro.cli import build_parser
    from repro.testing import MUTATIONS

    parser = build_parser()
    for name in MUTATIONS:
        assert parser.parse_args(["fuzz", "--mutate", name]).mutate == name


# ----------------------------------------------------------------------
# bounds, and the degrade ladder of the one verdict job
# ----------------------------------------------------------------------

def _bound_commands(tmp_path):
    out = str(tmp_path / "unused.aut")
    return {
        "verify": ["verify", "newcas"],
        "lin": ["lin", "newcas"],
        "lockfree": ["lockfree", "treiber"],
        "explore": ["explore", "newcas", "--out", out],
        "quotient": ["quotient", "newcas", "--out", out],
        "submit": ["submit", "lin", "newcas", "--socket", "/nonexistent.sock"],
    }


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("field", ["--threads", "--ops", "--values"])
@pytest.mark.parametrize(
    "command", ["verify", "lin", "lockfree", "explore", "quotient", "submit"]
)
def test_bounds_below_one_are_usage_errors(command, field, value, tmp_path,
                                           capsys):
    with pytest.raises(SystemExit) as exc:
        main(_bound_commands(tmp_path)[command] + [field, value])
    assert exc.value.code == 2
    assert f"argument {field}: must be >= 1, got {value}" in capsys.readouterr().err


def test_lockfree_degrade_reaches_true(capsys):
    code = main(["lockfree", "newcas", "--max-states", "600", "--degrade"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lock-free: UNKNOWN" in out
    assert "degraded verdict: TRUE" in out


def test_lockfree_degrade_reaches_false_with_its_lasso(capsys):
    code = main(["lockfree", "hw_queue", "--max-states", "1000", "--degrade"])
    out = capsys.readouterr().out
    assert code == 1
    assert "degraded verdict: FALSE" in out
    assert "\n  -- tau-loop (divergence) --\n" in out


def test_lin_both_degrade_reaches_agreement(capsys):
    code = main(["lin", "newcas", "--max-states", "600", "--degrade",
                 "--method", "both"])
    out = capsys.readouterr().out
    assert code == 0
    first, rung = out.split("degrade: retrying", 1)
    assert "linearizable [quotient]: UNKNOWN" in first
    assert "linearizable [reachability]: UNKNOWN" in first
    assert "linearizable: UNKNOWN  (both engines agree)" in first
    assert "degraded verdict [quotient]: TRUE" in rung
    assert "degraded verdict [reachability]: TRUE" in rung
    assert "degraded verdict: TRUE  (both engines agree)" in rung


# ----------------------------------------------------------------------
# input errors, the spec's state cap, and `bugs` outside the repo root
# ----------------------------------------------------------------------

def _input_error_commands(tmp_path):
    ok = tmp_path / "ok.aut"
    ok.write_text("des (0, 0, 1)\n")
    undeclared = tmp_path / "undeclared.aut"
    undeclared.write_text('des (0, 1, 2)\n(0, "a", 5)\n')
    not_utf8 = tmp_path / "not_utf8.aut"
    not_utf8.write_bytes(b"\x80\x81garbage\n")
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_text("garbage\n")
    # A checkpoint of another program: newcas stopped by its state cap.
    other = tmp_path / "newcas.ckpt"
    assert main(["explore", "newcas", "--ops", "1", "--max-states", "5",
                 "--out", str(tmp_path / "n.aut"),
                 "--checkpoint", str(other)]) == 2
    missing = str(tmp_path / "missing")
    out = str(tmp_path / "t.aut")
    state = ["--socket", str(tmp_path / "s.sock"),
             "--state-dir", str(tmp_path / "state")]
    return {
        "compare-missing": ["compare", missing, str(ok)],
        "compare-undeclared-state": ["compare", str(undeclared), str(ok)],
        "compare-not-utf8": ["compare", str(not_utf8), str(not_utf8)],
        "explore-resume-missing": ["explore", "treiber", "--out", out,
                                   "--resume", missing],
        "explore-resume-garbage": ["explore", "treiber", "--out", out,
                                   "--resume", str(garbage)],
        "explore-resume-other": ["explore", "treiber", "--out", out,
                                 "--resume", str(other)],
        "lin-spec-resume-garbage": ["lin", "treiber", "--ops", "1",
                                    "--spec-resume", str(garbage)],
        "lin-spec-resume-other": ["lin", "treiber", "--ops", "1",
                                  "--spec-resume", str(other)],
        "serve-queue-size": ["serve", *state, "--queue-size", "0"],
        "serve-job-workers": ["serve", *state, "--job-workers", "0"],
        "serve-cache-entries": ["serve", *state, "--cache-entries", "0"],
    }


@pytest.mark.parametrize("case", [
    "compare-missing", "compare-undeclared-state", "compare-not-utf8",
    "explore-resume-missing",
    "explore-resume-garbage", "explore-resume-other",
    "lin-spec-resume-garbage", "lin-spec-resume-other",
    "serve-queue-size", "serve-job-workers", "serve-cache-entries",
])
def test_input_errors_exit_two_with_one_error_line(case, tmp_path, capsys):
    argv = _input_error_commands(tmp_path)[case]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("method", ["quotient", "reachability", "both"])
def test_state_cap_below_one_leaves_the_spec_uncapped(cap, method, capsys):
    # As for the object system (ClientConfig): a cap <= 0 is no cap.
    code = main(["lin", "newcas", "--ops", "1", "--max-states", cap,
                 "--method", method])
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable: TRUE" in out
    assert "UNKNOWN" not in out


def test_bugs_runs_from_any_directory(tmp_path, monkeypatch):
    import runpy

    ran = []
    monkeypatch.setattr(
        runpy, "run_path", lambda path, run_name: ran.append(path)
    )
    monkeypatch.chdir(tmp_path)
    assert main(["bugs"]) == 0
    [script] = ran
    assert os.path.isfile(script)
    assert os.path.basename(script) == "bug_hunting.py"


@pytest.mark.parametrize("argv, expected", [
    (["lin", "newcas", "--threads", "2", "--ops", "1"], 0),
    (["compare", "missing.aut", "missing.aut"], 2),
    (["lin", "newcas", "--threads", "0"], 2),
    (["lin", "hm_list_buggy", "--on-the-fly"], 1),
])
def test_gc_threshold_does_not_leak(argv, expected, tmp_path, monkeypatch):
    # The command runs under its own gen-0 threshold and hands the
    # caller's back on every way out: success, a usage error (returned,
    # or argparse's SystemExit) and a FALSE verdict.
    import gc

    monkeypatch.chdir(tmp_path)
    saved = gc.get_threshold()
    caller = (1234, 5, 6)
    gc.set_threshold(*caller)
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert gc.get_threshold() == caller
    finally:
        gc.set_threshold(*saved)
    assert code == expected


def test_command_runs_under_a_higher_gc_threshold(monkeypatch):
    import gc

    from repro import cli

    seen = []

    def record(_args):
        seen.append(gc.get_threshold())
        return 0

    monkeypatch.setitem(cli.HANDLERS, "list", record)
    before = gc.get_threshold()
    assert main(["list"]) == 0
    [during] = seen
    assert during[0] > before[0] and during[1:] == before[1:]
