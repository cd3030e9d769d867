"""Command-line interface: ``python -m repro <command>``.

Subcommands::

    list                         the 14 benchmarks and expected verdicts
    verify <key>                 linearizability + progress, one exploration
    lin <key>                    linearizability only (three-valued verdict)
    lockfree <key>               lock-freedom only (three-valued verdict)
    explore <key> --out F.aut    export the object system (AUT format)
    quotient <key> --out F.aut   export its branching-bisim quotient
    compare A.aut B.aut          compare two LTSs up to an equivalence
    bugs                         re-run the paper's bug hunts
    fuzz                         differential-test the engine vs oracles
    serve --socket SPEC          run the verification service daemon
    submit <kind> <key>          submit a job to a running daemon

The long-running commands accept run-budget flags (``--deadline``,
``--max-rss-mb``) and degrade gracefully: on exhaustion they print a
structured ``UNKNOWN`` verdict naming the phase, the limit hit and the
progress made, and exit 2.  ``--degrade`` descends the
(threads, ops, values) workload lattice -- up to ``--degrade-steps``
smaller configurations -- stopping at the first verdict that completes
within budget.  Exit codes are 0/1/2 for
TRUE/FALSE/UNKNOWN and 130 after a SIGINT -- partial ``--stats`` /
``--json`` output is flushed either way; ``verify`` exits 1 if any of
its properties is FALSE, else 2 if any is UNKNOWN.  Input errors exit
2 as well, with one ``error:`` line on stderr and no traceback: a
bound below 1, a file that cannot be read or written, an ``.aut`` file
that does not parse or is not text, a checkpoint that is unreadable or
belongs to another run
(:class:`repro.InputError`; :func:`main` maps them in one place).
``explore`` additionally supports ``--checkpoint PATH`` /
``--resume PATH`` and ``--workers N`` to shard exploration across
worker processes with crash recovery (byte-identical output;
``--fault-plan`` injects failures on purpose).  ``lin`` accepts
``--method {quotient,reachability,both}`` to pick the verdict engine:
the Theorem 5.3 quotient pipeline, the independent BEEH
reachability backend, or both -- ``both`` cross-checks the verdicts
and exits 3 (loudly) if the engines disagree.  ``lin --on-the-fly``
runs the streaming reachability search whatever the method (it is
disabled under ``both``).  ``serve`` runs the
persistent verification daemon (bounded job queue, crash-safe result
cache, graceful SIGTERM checkpointing) and ``submit`` sends it a
``lin`` / ``lockfree`` / ``verify`` / ``explore`` request over a TCP or
Unix-domain socket, with the same report and exit code as the direct
commands (plus exit 2 when the service itself is unreachable or rejects
the job): ``lin``, ``lockfree``, ``verify`` and the daemon run one
verdict job (:mod:`repro.verify.job`).  See docs/ROBUSTNESS.md and
docs/TESTING.md.

Examples::

    python -m repro verify ms_queue --threads 2 --ops 2
    python -m repro lin ms_queue --deadline 60 --degrade
    python -m repro lin hw_queue --method both
    python -m repro lockfree treiber --max-rss-mb 2048
    python -m repro explore ms_queue --ops 3 --out ms.aut --checkpoint ms.ckpt
    python -m repro quotient treiber --out treiber.aut
    python -m repro compare impl.aut spec.aut --relation trace
    python -m repro fuzz --seed 0 --n 200
    python -m repro fuzz --mutate skip-divergence-mark --expect-bug
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from . import InputError
from .objects import BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover
    from .util.budget import RunBudget
    from .util.metrics import Stats

# Each handler imports what it runs, so a command compiles only the
# modules on its own code path (see DESIGN.md, "Start-up").

#: ``(args, sinks)`` of the command currently collecting metrics, so a
#: KeyboardInterrupt in :func:`main` can flush partial ``--stats`` /
#: ``--json`` output before exiting 130.
_ACTIVE_SINKS = None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_bounds(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_positive_int, default=2)
    parser.add_argument("--ops", type=_positive_int, default=2)
    parser.add_argument("--values", type=_positive_int, default=2,
                        help="size of the data-value domain in the workload")
    parser.add_argument("--max-states", type=int, default=None)


def _add_stats(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="print a per-stage metrics table")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="dump the same metrics as JSON to PATH")


def _add_budget(parser: argparse.ArgumentParser, degrade: bool = False) -> None:
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget; exhaustion yields UNKNOWN "
                             "(exit 2), never a crash")
    parser.add_argument("--max-rss-mb", type=int, default=None, metavar="MB",
                        help="peak-RSS budget in megabytes")
    if degrade:
        parser.add_argument("--degrade", action="store_true",
                            help="on exhaustion, descend the (threads, ops, "
                                 "values) workload lattice until a verdict "
                                 "completes")
        parser.add_argument("--degrade-steps", type=int, default=3,
                            metavar="N",
                            help="maximum rungs of the degradation descent "
                                 "(default 3)")


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="shard exploration across N worker processes "
                             "(0 = in-process serial); output is "
                             "byte-identical either way")
    parser.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="inject worker failures for testing, e.g. "
                             "'kill:1@40,stall:*@10,corrupt:0@5'")
    parser.add_argument("--shard-states", type=int, default=None, metavar="K",
                        help="frontier states per work shard (default 128)")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="silence window before a busy worker is "
                             "declared hung and its shard requeued "
                             "(default 10)")


def _budget_from(args) -> RunBudget:
    from .util.budget import RunBudget

    max_rss_mb = getattr(args, "max_rss_mb", None)
    return RunBudget(
        deadline_seconds=getattr(args, "deadline", None),
        max_rss_kb=max_rss_mb * 1024 if max_rss_mb else None,
    )


def _wants_stats(args) -> bool:
    return bool(args.stats) or args.json is not None


def _emit_stats(args, sinks: Dict[str, Stats]) -> None:
    """Print and/or dump the collected per-pipeline metrics."""
    global _ACTIVE_SINKS
    _ACTIVE_SINKS = None
    if args.stats:
        for name, sink in sinks.items():
            print()
            print(sink.render(title=f"-- {name} --"))
    if args.json is not None:
        payload = {
            "schema": "repro.cli-stats/v1",
            "command": args.command,
            "target": getattr(args, "key", None),
            "config": {
                "threads": getattr(args, "threads", None),
                "ops": getattr(args, "ops", None),
                "values": getattr(args, "values", None),
            },
            "pipelines": {name: sink.to_dict() for name, sink in sinks.items()},
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def _request(args, kind: str, method: Optional[str] = None) -> Dict:
    """The verdict-job request of the command's object and bounds."""
    from .verify.job import build_request

    return build_request(kind, args.key, args.threads, args.ops, args.values,
                         args.max_states, method)


def _program_config(args):
    """``(bench, program, ClientConfig)`` of the command's object and bounds."""
    from .verify.job import request_program_config

    return request_program_config(_request(args, "explore"))


def cmd_list(_args) -> int:
    from .util.tables import render_table

    rows = []
    for bench in BENCHMARKS.values():
        if bench.expect_lock_free is None:
            progress = "n/a (lock-based)"
        else:
            progress = "lock-free" if bench.expect_lock_free else "NOT lock-free"
        rows.append([
            bench.key,
            bench.title,
            "linearizable" if bench.expect_linearizable else "NOT linearizable",
            progress,
        ])
    print(render_table(["key", "case study", "linearizability", "progress"], rows))
    return 0


def _make_sinks(args):
    """A named-sink factory registered for interrupt-time flushing."""
    global _ACTIVE_SINKS
    from .util.metrics import Stats

    sinks: Dict[str, Stats] = {}
    _ACTIVE_SINKS = (args, sinks)

    def sink(name: str) -> Optional[Stats]:
        if not _wants_stats(args):
            return None
        return sinks.setdefault(name, Stats())

    return sinks, sink


def _exhausted_exit(args, sinks, exc, note: Optional[str] = None) -> int:
    """Print the UNKNOWN verdict of a raised budget exhaustion and the
    ``note``, flush ``--stats`` / ``--json``, and return the exit code:
    130 after a SIGINT, else 2."""
    from .util.budget import UNKNOWN
    from .verify.job import exhaustion_dict, exit_code

    print(f"UNKNOWN -- {exc.exhaustion.render()}")
    if note is not None:
        print(note)
    _emit_stats(args, sinks)
    return exit_code(UNKNOWN, exhaustion_dict(exc.exhaustion))


def cmd_verify(args) -> int:
    """Linearizability, lock-freedom and obstruction-freedom of one
    exploration, with budget governance."""
    print(f"== {BENCHMARKS[args.key].title} | {args.threads} threads x "
          f"{args.ops} ops ==")
    return _run_ladder(args, _request(args, "verify"), {})


def cmd_lin(args) -> int:
    """Linearizability with budget governance and a degradation ladder."""
    method, on_the_fly = args.method, args.on_the_fly
    if on_the_fly and method != "both":
        # The one on-the-fly lane is the streaming reachability search.
        method = "reachability"
    print(f"== {BENCHMARKS[args.key].title} | linearizability ({method}) | "
          f"{args.threads} threads x {args.ops} ops ==")
    spec_files = {}
    if args.spec_checkpoint:
        from .lang.checkpoint import CheckpointSink

        spec_files["spec_checkpoint"] = CheckpointSink(args.spec_checkpoint)
    if args.spec_resume:
        from .lang.checkpoint import load_checkpoint

        spec_files["spec_resume"] = load_checkpoint(args.spec_resume)
    if on_the_fly and method == "both":
        # The cross-check's whole point is two engines over one shared
        # full exploration; an early-exit lane would leave nothing for
        # the second engine to check against.
        print("note: --on-the-fly is disabled with --method both "
              "(the cross-check shares one full exploration)")
        on_the_fly = False
    return _run_ladder(args, _request(args, "lin", method), spec_files,
                       on_the_fly=on_the_fly)


def cmd_lockfree(args) -> int:
    """Lock-freedom with budget governance and a degradation ladder."""
    print(f"== {BENCHMARKS[args.key].title} | lock-freedom | "
          f"{args.threads} threads x {args.ops} ops ==")
    return _run_ladder(args, _request(args, "lockfree", args.method), {})


def _degrade_rungs(threads: int, ops: int, values: int, steps: int):
    """The bounded descent over the (threads, ops, values) lattice.

    Each rung shrinks the cheapest-to-sacrifice coordinate still above
    its floor of 1 -- operations first (state count is roughly
    exponential in ops), then data values, then threads -- yielding at
    most ``steps`` successively smaller workload configurations.
    """
    for _ in range(max(0, steps)):
        if ops > 1:
            ops -= 1
        elif values > 1:
            values -= 1
        elif threads > 1:
            threads -= 1
        else:
            return
        yield threads, ops, values


def _run_ladder(args, request: Dict, spec_files: Dict, on_the_fly: bool = False) -> int:
    """Run the verdict job and print its report; with ``--degrade``,
    descend the workload lattice while the verdict is UNKNOWN.

    Spec checkpoints are fingerprinted against the workload, and every
    rung shrinks (threads, ops, values), so ``spec_files`` apply to the
    requested configuration only: on a rung they would be a
    CheckpointMismatch.
    """
    from .util.budget import REASON_INTERRUPTED, UNKNOWN
    from .verify.job import report_lines, run_job

    sinks, sink = _make_sinks(args)
    budget = _budget_from(args)
    # ``verify`` has no degrade ladder.
    steps = args.degrade_steps if getattr(args, "degrade", False) else 0
    with budget.install_sigint():
        result = run_job(request, budget=budget, sink=sink,
                         on_the_fly=on_the_fly, **spec_files)
        print("\n".join(report_lines(result)))
        for threads, ops, values in _degrade_rungs(
            args.threads, args.ops, args.values, steps
        ):
            if (
                result["verdict"] != UNKNOWN
                or result["exhaustion"]["reason"] == REASON_INTERRUPTED
            ):
                break
            print(f"degrade: retrying with --threads {threads} --ops {ops} "
                  f"--values {values}")
            budget.restart()
            result = run_job(
                dict(request, threads=threads, ops=ops, values=values),
                budget=budget, sink=sink, on_the_fly=on_the_fly,
            )
            print("\n".join(report_lines(result, "degraded verdict")))
    _emit_stats(args, sinks)
    return result["exit_code"]


def cmd_explore(args) -> int:
    from .core.aut import write_aut
    from .lang.checkpoint import CheckpointSink, load_checkpoint
    from .lang.client import maybe_parallel_explore
    from .util.budget import BudgetExhausted

    bench, program, config = _program_config(args)
    sinks, sink = _make_sinks(args)
    stats = sink("explore")
    budget = _budget_from(args)
    checkpoint = CheckpointSink(args.checkpoint) if args.checkpoint else None
    resume = load_checkpoint(args.resume) if args.resume else None
    with budget.install_sigint():
        try:
            system = maybe_parallel_explore(
                program, config,
                workers=args.workers, fault_plan=args.fault_plan,
                shard_states=args.shard_states,
                heartbeat_timeout=args.heartbeat_timeout, stats=stats,
                budget=budget, checkpoint=checkpoint, resume=resume,
            )
        except BudgetExhausted as exc:
            note = None
            if checkpoint is not None and checkpoint.saves:
                note = (f"checkpoint left at {args.checkpoint} "
                        f"(resume with --resume {args.checkpoint})")
            return _exhausted_exit(args, sinks, exc, note)
    write_aut(system, args.out)
    print(f"{bench.key}: {system.num_states} states, "
          f"{system.num_transitions} transitions -> {args.out}")
    _emit_stats(args, sinks)
    return 0


def cmd_quotient(args) -> int:
    from .core import branching_partition, quotient_lts
    from .core.aut import write_aut
    from .lang import explore
    from .util.budget import BudgetExhausted
    from .util.metrics import stage

    bench, program, config = _program_config(args)
    sinks, sink = _make_sinks(args)
    stats = sink("quotient")
    budget = _budget_from(args)
    with budget.install_sigint():
        try:
            system = explore(program, config, stats=stats, budget=budget)
            with stage(stats, "quotient"):
                quotient = quotient_lts(
                    system,
                    branching_partition(
                        system, stats=stats, reduce=True, budget=budget
                    ),
                )
        except BudgetExhausted as exc:
            return _exhausted_exit(args, sinks, exc)
    if stats is not None:
        stats.count("impl_states", quotient.lts.num_states)
    write_aut(quotient.lts, args.out)
    print(f"{bench.key}: {system.num_states} states -> quotient "
          f"{quotient.lts.num_states} states -> {args.out}")
    essential = sorted(
        str(a) for a in quotient.essential_internal_annotations()
    )
    if essential:
        print("essential internal steps:", ", ".join(essential))
    _emit_stats(args, sinks)
    return 0


def cmd_compare(args) -> int:
    from .core.aut import read_aut
    from .util.budget import BudgetExhausted
    from .util.metrics import stage

    if args.divergence and args.relation in ("strong", "trace"):
        args.usage_error(
            f"--divergence does not apply to --relation {args.relation}"
        )
    if args.reduce and args.relation != "branching":
        args.usage_error(
            f"--reduce applies to --relation branching only, "
            f"not {args.relation}"
        )
    sinks, sink = _make_sinks(args)
    stats = sink("compare")
    budget = _budget_from(args)
    with stage(stats, "parse"):
        left = read_aut(args.left)
        right = read_aut(args.right)
        if stats is not None:
            stats.count("states", left.num_states + right.num_states)
            stats.count(
                "transitions", left.num_transitions + right.num_transitions
            )
    with budget.install_sigint():
        try:
            code = _compare_governed(args, left, right, stats, budget)
        except BudgetExhausted as exc:
            return _exhausted_exit(args, sinks, exc)
    _emit_stats(args, sinks)
    return code


def _compare_governed(args, left, right, stats, budget) -> int:
    if args.relation == "trace":
        from .core import trace_refines

        forward = trace_refines(left, right, stats=stats, budget=budget)
        backward = trace_refines(right, left, stats=stats, budget=budget)
        print(f"{args.left} refines {args.right}: {forward.holds}")
        print(f"{args.right} refines {args.left}: {backward.holds}")
        for result in (forward, backward):
            if not result.holds:
                print(result.render_counterexample())
        return 0 if (forward.holds and backward.holds) else 1
    if args.relation == "branching":
        from .core import compare_branching

        outcome = compare_branching(
            left, right, divergence=args.divergence, stats=stats,
            reduce=args.reduce, budget=budget,
        )
    elif args.relation == "weak":
        from .core import compare_weak

        outcome = compare_weak(
            left, right, divergence=args.divergence, stats=stats,
            budget=budget,
        )
    else:
        from .core import compare_strong

        outcome = compare_strong(left, right, stats=stats, budget=budget)
    name = args.relation + ("-divergence" if args.divergence else "")
    print(f"{name} bisimilar: {outcome.equivalent}")
    if not outcome.equivalent and args.relation == "branching":
        from .core import explain_comparison
        from .util.metrics import stage

        with stage(stats, "explain"):
            explanation = explain_comparison(outcome, budget=budget)
        if explanation:
            print(explanation.render())
    return 0 if outcome.equivalent else 1


def cmd_bugs(_args) -> int:
    import runpy
    from pathlib import Path

    # The script ships in the source tree, next to ``src/``.
    script = Path(__file__).resolve().parents[2] / "examples" / "bug_hunting.py"
    runpy.run_path(str(script), run_name="__main__")
    return 0


def cmd_fuzz(args) -> int:
    from .testing import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        n=args.n,
        max_states=args.max_states,
        tau_density=args.tau_density,
        time_budget=args.time_budget,
        instance_deadline=args.instance_deadline,
        corpus_dir=args.corpus,
        use_programs=not args.no_programs,
        mutate=args.mutate,
        progress=print,
    )
    print(report.render())
    if report.instances == 0 or report.checks == 0:
        # A run that never actually checked anything (e.g. the time
        # budget expired before the first instance) must not pass --
        # with --expect-bug it would otherwise be a vacuous "the
        # harness has teeth" claim.
        print("ERROR: vacuous fuzz run -- no instance was actually checked")
        return 1
    found_bug = bool(report.disagreements)
    if args.expect_bug:
        if found_bug:
            print("expected a disagreement and found one: the harness has teeth")
            return 0
        print("ERROR: expected the harness to catch a disagreement, it did not")
        return 1
    return 1 if found_bug else 0


def cmd_serve(args) -> int:
    """Run the persistent verification daemon until SIGTERM/SIGINT."""
    from .service import DaemonConfig, VerificationDaemon

    config = DaemonConfig(
        socket=args.socket,
        state_dir=args.state_dir,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        cache_entries=args.cache_entries,
        heartbeat_seconds=args.heartbeat,
        checkpoint_seconds=args.checkpoint_interval,
        job_deadline=args.job_deadline,
    )
    daemon = VerificationDaemon(config)
    endpoint = daemon.bind()
    print(f"serving on {endpoint} (state in {args.state_dir}, "
          f"queue {args.queue_size}, {args.job_workers} job workers)",
          flush=True)
    daemon.run_forever()
    print("daemon stopped")
    return 0


def cmd_submit(args) -> int:
    """Submit one job to a running daemon and wait for the verdict."""
    from .service import ServiceError, SubmissionRejected, submit_request
    from .util.budget import EXIT_UNKNOWN
    from .verify.job import report_lines

    if args.connect_attempts < 1:
        print("--connect-attempts must be >= 1", file=sys.stderr)
        return EXIT_UNKNOWN
    request = {
        "kind": args.kind,
        "key": args.key,
        "threads": args.threads,
        "ops": args.ops,
        "values": args.values,
        "max_states": args.max_states,
        "method": args.method,
        "deadline": args.deadline,
    }
    print(f"== {args.key} | {args.kind} via {args.socket} | "
          f"{args.threads} threads x {args.ops} ops ==")

    def on_accepted(job_id: str, meta: Dict) -> None:
        dedup = " (deduplicated onto an in-flight job)" if meta.get("dedup") else ""
        print(f"accepted as {job_id}{dedup}", flush=True)

    def on_progress(payload: Dict) -> None:
        detail = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
        print(f"progress: {detail}", flush=True)

    policy = None
    if args.retry_backoff is not None:
        from .util.retry import BackoffPolicy

        base, _, cap = args.retry_backoff.partition(":")
        try:
            policy = BackoffPolicy(
                base=float(base), cap=float(cap) if cap else 2.0, jitter=0.5,
            )
        except ValueError:
            print(f"bad --retry-backoff {args.retry_backoff!r} "
                  "(expected BASE or BASE:CAP seconds)", file=sys.stderr)
            return EXIT_UNKNOWN
    try:
        result = submit_request(
            args.socket, request,
            connect_timeout=args.connect_timeout,
            connect_attempts=args.connect_attempts,
            connect_policy=policy,
            timeout=args.timeout,
            on_progress=on_progress,
            on_accepted=on_accepted,
        )
    except SubmissionRejected as exc:
        print(f"rejected: {exc.reason}", file=sys.stderr)
        return EXIT_UNKNOWN
    except ServiceError as exc:
        # Service unavailable == no verdict, which is UNKNOWN territory;
        # the job (if accepted) keeps running daemon-side and a
        # resubmission will hit the cache or resume the checkpoint.
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    notes = []
    if result.get("cached"):
        notes.append("served from cache (no re-exploration)")
    if result.get("resumed"):
        notes.append("resumed from checkpoint")
    if notes:
        print("note: " + "; ".join(notes))
    if result.get("error"):
        print(f"job error: {result['error']}")
    else:
        print("\n".join(report_lines(result)))
    return result["exit_code"]


class _LazyChoices:
    """Choices that ``load`` returns, read only when argparse checks a
    value or prints the choices in a usage line, so that building the
    parser imports no module for them.  Set them after ``add_argument``,
    which would list them to check the metavar."""

    def __init__(self, load: Callable[[], Sequence[str]]) -> None:
        self._load = load

    def __contains__(self, name: object) -> bool:
        return name in self._load()

    def __iter__(self):
        return iter(self._load())


def _mutation_names() -> List[str]:
    from .testing import MUTATIONS

    return sorted(MUTATIONS)


def _job_table(kind: Optional[str] = None) -> Callable[[], Sequence[str]]:
    """The verdict job's request kinds, or the methods of ``kind``."""

    def load() -> Sequence[str]:
        from .verify.job import KINDS, METHODS

        return KINDS if kind is None else METHODS[kind]

    return load


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Branching bisimulation and concurrent object verification",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the benchmark objects")

    verify = commands.add_parser("verify", help="verify one benchmark")
    verify.add_argument("key", choices=sorted(BENCHMARKS))
    _add_bounds(verify)
    _add_stats(verify)
    _add_budget(verify)

    for name, help_text in (
        ("lin", "linearizability only, three-valued verdict"),
        ("lockfree", "lock-freedom only, three-valued verdict"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("key", choices=sorted(BENCHMARKS))
        _add_bounds(sub)
        _add_stats(sub)
        _add_budget(sub, degrade=True)
        if name == "lockfree":
            method = sub.add_argument(
                "--method", default="union",
                help="how to detect divergence: the Theorem 5.9 union "
                     "comparison, or the equivalent tau-cycle check",
            )
        else:
            method = sub.add_argument(
                "--method",
                default="quotient",
                help="verdict engine: the Theorem 5.3 quotient pipeline, "
                     "the BEEH reachability backend, or both "
                     "(cross-checked; exit 3 on disagreement)",
            )
            sub.add_argument("--spec-checkpoint", metavar="PATH", default=None,
                             help="periodically snapshot the specification-"
                                  "LTS generation to PATH")
            sub.add_argument("--spec-resume", metavar="PATH", default=None,
                             help="resume the specification-LTS generation "
                                  "from a checkpoint instead of recomputing")
            sub.add_argument(
                "--on-the-fly",
                action=argparse.BooleanOptionalAction,
                default=False,
                help="decide with the streaming reachability search fused "
                     "with exploration, whatever --method says: violations "
                     "are reported after expanding only the states the "
                     "search touched (same verdicts; ignored with "
                     "--method both)",
            )
        method.choices = _LazyChoices(_job_table(name))

    for name, help_text in (
        ("explore", "export the object system as .aut"),
        ("quotient", "export the branching-bisimulation quotient as .aut"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("key", choices=sorted(BENCHMARKS))
        sub.add_argument("--out", required=True)
        _add_bounds(sub)
        _add_stats(sub)
        _add_budget(sub)
        if name == "explore":
            _add_parallel(sub)
            sub.add_argument("--checkpoint", metavar="PATH", default=None,
                             help="periodically snapshot the exploration to "
                                  "PATH (also written on exhaustion)")
            sub.add_argument("--resume", metavar="PATH", default=None,
                             help="resume a checkpointed exploration; the "
                                  "result is bit-identical to an "
                                  "uninterrupted run")

    compare = commands.add_parser("compare", help="compare two .aut files")
    compare.add_argument("left")
    compare.add_argument("right")
    compare.add_argument(
        "--relation", choices=["branching", "weak", "strong", "trace"],
        default="branching",
    )
    compare.add_argument("--divergence", action="store_true",
                         help="divergence-sensitive (branching and weak "
                              "only)")
    compare.add_argument("--reduce", action="store_true",
                         help="compress silent structure before a "
                              "branching comparison (branching only)")
    _add_stats(compare)
    _add_budget(compare)
    # Flag combinations are checked by cmd_compare, reported as
    # argparse's own usage errors (exit 2).
    compare.set_defaults(usage_error=compare.error)

    commands.add_parser("bugs", help="re-run the paper's bug hunts")

    fuzz = commands.add_parser(
        "fuzz",
        help="differentially fuzz the engine against reference oracles",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--n", type=int, default=200,
                      help="number of random instances to generate")
    fuzz.add_argument("--max-states", type=int, default=7,
                      help="state-count ceiling for random LTS instances")
    fuzz.add_argument("--tau-density", type=float, default=0.35,
                      help="probability that a generated transition is silent")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      help="wall-clock cap in seconds, enforced inside "
                           "each instance as well as between them")
    fuzz.add_argument("--instance-deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="per-instance wall-clock cap; instances cut "
                           "short count as exhausted, not as failures")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="write shrunk failing cases to DIR as .aut files")
    mutate = fuzz.add_argument("--mutate", default=None,
                               help="inject a known engine bug for the whole run")
    mutate.choices = _LazyChoices(_mutation_names)
    fuzz.add_argument("--expect-bug", action="store_true",
                      help="exit 0 iff a disagreement WAS found "
                           "(harness self-test, pair with --mutate)")
    fuzz.add_argument("--no-programs", action="store_true",
                      help="fuzz raw LTSs only, skip random client programs")

    serve = commands.add_parser(
        "serve", help="run the persistent verification service daemon",
    )
    serve.add_argument("--socket", required=True, metavar="PATH|HOST:PORT",
                       help="Unix-domain socket path, or HOST:PORT for TCP")
    serve.add_argument("--state-dir", default=".repro-service", metavar="DIR",
                       help="durable state: result cache + job checkpoints "
                            "(default .repro-service)")
    serve.add_argument("--queue-size", type=_positive_int, default=8, metavar="N",
                       help="max in-flight jobs before submissions are "
                            "rejected with backpressure (default 8)")
    serve.add_argument("--job-workers", type=_positive_int, default=2, metavar="N",
                       help="concurrent job-runner threads (default 2)")
    serve.add_argument("--cache-entries", type=_positive_int, default=256,
                       metavar="N",
                       help="LRU cap on cached results (default 256)")
    serve.add_argument("--heartbeat", type=float, default=2.0,
                       metavar="SECONDS",
                       help="idle-connection heartbeat interval (default 2)")
    serve.add_argument("--checkpoint-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="max seconds between job checkpoint saves "
                            "(bounds work lost to a hard kill; default 1)")
    serve.add_argument("--job-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-job wall-clock budget (a request's "
                            "own deadline overrides it)")

    submit = commands.add_parser(
        "submit", help="submit one job to a running verification daemon",
    )
    kind = submit.add_argument("kind")
    kind.choices = _LazyChoices(_job_table())
    submit.add_argument("key", choices=sorted(BENCHMARKS))
    submit.add_argument("--socket", required=True, metavar="PATH|HOST:PORT")
    _add_bounds(submit)
    submit.add_argument("--method", default=None,
                        help="verdict method (lin: quotient/reachability/"
                             "both; lockfree: union/tau-cycle)")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget enforced daemon-side")
    submit.add_argument("--timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="max silence between frames before declaring "
                             "the daemon dead (heartbeats count; default 60)")
    submit.add_argument("--connect-timeout", type=float, default=5.0,
                        metavar="SECONDS")
    submit.add_argument("--connect-attempts", type=int, default=3,
                        metavar="N",
                        help="connect retries with capped backoff + jitter "
                             "(default 3; rides out a daemon restart)")
    submit.add_argument("--retry-backoff", default=None,
                        metavar="BASE[:CAP]",
                        help="reconnect backoff schedule in seconds, e.g. "
                             "'0.1' or '0.1:2.0' (default 0.05:2.0 with "
                             "jitter)")
    return parser


HANDLERS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "lin": cmd_lin,
    "lockfree": cmd_lockfree,
    "explore": cmd_explore,
    "quotient": cmd_quotient,
    "compare": cmd_compare,
    "bugs": cmd_bugs,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
    "submit": cmd_submit,
}


def main(argv: Optional[List[str]] = None) -> int:
    # A command allocates hundreds of thousands of tuples (state keys,
    # edges) that form no reference cycles, and the default gen-0
    # threshold of 700 collects after every 700 of them: 716 collections
    # in `lin hm_list`, 639 (a quarter of the run) in `compare --relation
    # trace`.  One fixed, higher threshold for the command, restored on
    # the way out so an in-process caller keeps its own (DESIGN.md 2.6).
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, *thresholds[1:])
    try:
        return _run(argv)
    finally:
        gc.set_threshold(*thresholds)


def _run(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (OSError, InputError) as exc:
        # A file that cannot be read or written, or does not hold what
        # the command needs: a usage error (exit 2, as argparse's own),
        # never a traceback with exit 1, the FALSE verdict's code.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Second Ctrl-C (or one outside an install_sigint window): flush
        # whatever metrics were collected, then report the POSIX 130.
        from .util.budget import EXIT_INTERRUPTED

        print("interrupted", file=sys.stderr)
        if _ACTIVE_SINKS is not None:
            try:
                _emit_stats(*_ACTIVE_SINKS)
            except Exception:
                pass
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
