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
    assert "linearizable: True" in out
    assert "lock-free: True" in out
    assert "obstruction-free: True" in out


def test_verify_bug_exit_code(capsys):
    code = main(["verify", "hw_queue", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "lock-free: False" in out
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


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "not_a_benchmark"])


def test_verify_stats_table(capsys):
    code = main(["verify", "newcas", "--threads", "2", "--ops", "1",
                 "--stats"])
    out = capsys.readouterr().out
    assert code == 0
    assert "-- linearizability --" in out
    assert "-- lock-freedom --" in out
    assert "-- obstruction-freedom --" in out
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
    assert "-- linearizability --" not in out  # table only with --stats
    payload = json.loads(open(path).read())
    assert payload["schema"] == "repro.cli-stats/v1"
    assert payload["command"] == "verify"
    assert payload["target"] == "newcas"
    assert payload["config"]["threads"] == 2
    pipelines = payload["pipelines"]
    assert set(pipelines) == {
        "linearizability", "lock-freedom", "obstruction-freedom"
    }
    lin = pipelines["linearizability"]
    assert lin["schema"] == "repro.stats/v1"
    stages = {entry["stage"] for entry in lin["stages"]}
    assert {"explore", "quotient", "quotient/refinement", "check"} <= stages
    assert lin["counters"]["explore.states"] > 0
    assert lin["total_seconds"] > 0


def test_verify_without_stats_prints_no_table(capsys):
    main(["verify", "newcas", "--threads", "2", "--ops", "1"])
    out = capsys.readouterr().out
    assert "-- linearizability --" not in out
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


def test_lin_with_workers_and_fault(capsys):
    code = main(["lin", "newcas", "--threads", "2", "--ops", "1",
                 "--workers", "2", "--fault-plan", "exit:0@5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable: TRUE" in out


def test_lockfree_with_workers(capsys):
    code = main(["lockfree", "newcas", "--ops", "1", "--workers", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lock-free: TRUE" in out


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

    from repro.lang import ClientConfig, StreamingExplorer, spec_lts
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
        bench.build(3), ClientConfig(3, 2, workload), cache_edges=True,
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


def test_lin_onthefly_with_workers_degrades_to_serial(capsys):
    code = main(["lin", "hm_list_buggy", "--threads", "2", "--ops", "2",
                 "--method", "reachability", "--on-the-fly",
                 "--workers", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "--workers ignored" in out


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
    # checked -- that is a vacuous run, not a pass.
    assert code == 1
    assert "exhausted=13" in out
    assert "vacuous" in out


def test_fuzz_drop_budget_checks_mutation_is_caught(capsys):
    code = main(["fuzz", "--seed", "0", "--n", "20",
                 "--mutate", "drop-budget-checks", "--expect-bug"])
    out = capsys.readouterr().out
    assert code == 0
    assert "budget:governance" in out


def test_commands_that_never_reduce_do_not_import_numpy(tmp_path):
    # list, explore and lin --on-the-fly never reduce or refine, so they
    # must not pay NumPy's import; only a fresh interpreter shows that.
    out = str(tmp_path / "newcas.aut")
    script = (
        "import sys\n"
        "from repro.cli import main\n"
        "codes = [main(['list']),\n"
        f"         main(['explore', 'newcas', '--ops', '1', '--out', {out!r}]),\n"
        "         main(['lin', 'hm_list_buggy', '--on-the-fly'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 1] False"
