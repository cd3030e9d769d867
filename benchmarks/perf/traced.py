"""In-process traced run: where a workload's time goes, layer by layer.

    PYTHONPATH=src python3 benchmarks/perf/traced.py --workload NAME \\
        --inputs DIR --work DIR

Replays every command of the workload inside this one process.  Each
call into a layer (``lang``, ``core``, ``verify``, ``parallel``) goes
through :meth:`Tracer.call`, which resolves the public function by name
and records a span around it; spans live in the benchmark's files only,
never inside the program.  Where the CLI pipeline passes
``reduce=True``, the replay calls ``reduce_lts``, then
``branching_partition`` on the reduced system, then ``lift_partition``
and ``quotient_lts``, so reduction and refinement show up separately.

The run makes one untraced warm pass and two traced passes, and
prints, as its last line, one JSON object with the medians of the
traced passes.  ``trace.overhead_frac`` is the time the span records
themselves take (see :func:`span_cost_seconds`) over the pass time.  A layer entry point that raises
or no longer exists sets that layer's metrics to ``null`` and records
the error; it never stops the other commands.  Every replayed verdict and size is checked against
``expected.json``; a mismatch is reported, and ``run.py`` then marks
the run incorrect.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from checks import load_expected, render_argv, sha256_file
from summary import median

TRACED_PASSES = 2

LAYER_MODULES = ("repro.objects", "repro.lang", "repro.core", "repro.verify",
                 "repro.parallel", "repro.util")

#: Metrics that depend on the spans of each name; an error in a span
#: sets them to null.
SPAN_METRICS = {
    "lang.explore": ["lang.explore.s", "lang.explore.states",
                     "lang.explore.transitions", "lang.explore.us_per_transition"],
    "lang.spec": ["lang.spec.s", "lang.spec.states"],
    "core.aut.read": ["core.aut.read_s"],
    "core.aut.write": ["core.aut.write_s"],
    "core.reduce": ["core.reduce.s", "core.reduce.removed_frac"],
    "core.refine": ["core.refine.s", "core.refine.blocks"],
    "core.quotient": ["core.quotient.s"],
    "core.traces": ["core.traces.s"],
    "core.compare": ["core.compare.s"],
    "core.divergence": ["core.divergence.s"],
    "verify.onthefly": ["verify.onthefly.s", "verify.onthefly.expanded",
                        "verify.onthefly.expanded_frac"],
    "parallel.explore": ["parallel.explore.s", "parallel.speedup_vs_serial",
                         "parallel.worker_busy_frac", "parallel.shards",
                         "parallel.requeues"],
    "parallel.serial": ["parallel.speedup_vs_serial"],
}


class LayerError(Exception):
    """A call into a layer raised, or its entry point is gone."""

    def __init__(self, span: str, message: str) -> None:
        super().__init__(f"{span}: {message}")
        self.span = span


class Tracer:
    """Spans and counts recorded around each call into a layer.

    ``counted=False`` marks a span that is not part of the CLI's own
    work for the command: program build, the serial reference run of
    the ``parallel`` layer, and the ``spec_lts`` share measured ahead of
    an on-the-fly verdict (the verify entry repeats that work inside its
    own span).  Such spans are reported but left out of
    :attr:`layer_seconds`, the traced time the CLI itself spends.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.command = ""
        self.spans: List[Dict] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.layer_seconds = 0.0

    def call(self, span: str, target: str, *args, counted: bool = True, **kwargs):
        """Call ``module:function`` and record it under ``span``."""
        module, _, name = target.partition(":")
        try:
            function = getattr(importlib.import_module(module), name)
            start = time.perf_counter()
            result = function(*args, **kwargs)
            end = time.perf_counter()
        except Exception as exc:
            raise LayerError(span, f"{target}: {type(exc).__name__}: {exc}") from exc
        if self.enabled:
            self.spans.append({"command": self.command, "span": span, "start": start,
                               "end": end, "counted": counted})
            self.seconds[span] += end - start
            if counted:
                self.layer_seconds += end - start
        return result

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount


def parse_command(argv: List[str]) -> argparse.Namespace:
    """The CLI arguments the workloads use, with the CLI's defaults."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("kind")
    parser.add_argument("operands", nargs="+")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--ops", type=int, default=2)
    parser.add_argument("--values", type=int, default=2)
    parser.add_argument("--on-the-fly", action="store_true")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--relation", default="branching")
    parser.add_argument("--divergence", action="store_true")
    parser.add_argument("--reduce", action="store_true")
    return parser.parse_args(argv)


def _program(t: Tracer, args):
    bench = t.call("build", "repro.objects:get", args.operands[0], counted=False)
    config = t.call("build", "repro.lang:ClientConfig", args.threads, args.ops,
                    bench.default_workload(args.values), counted=False)
    return bench, config


def _explore(t: Tracer, bench, args, config):
    system = t.call("lang.explore", "repro.lang:explore", bench.build(args.threads), config)
    t.count("lang.explore.states", system.num_states)
    t.count("lang.explore.transitions", system.num_transitions)
    return system


def _partition_reduced(t: Tracer, lts, divergence: bool = False):
    """``branching_partition(lts, reduce=True)``, one layer call at a time."""
    reduced = t.call("core.reduce", "repro.core:reduce_lts", lts, divergence=divergence)
    t.count("core.reduce.states_in", lts.num_states)
    t.count("core.reduce.states_removed", reduced.states_removed)
    inner = t.call("core.refine", "repro.core:branching_partition", reduced.lts,
                   divergence=divergence)
    t.count("core.refine.blocks", t.call("core.refine", "repro.core:num_blocks", inner))
    lifted = t.call("core.refine", "repro.core:lift_partition", reduced, inner)
    return t.call("core.refine", "repro.core:normalize", lifted)


def _quotient(t: Tracer, lts):
    return t.call("core.quotient", "repro.core:quotient_lts", lts, _partition_reduced(t, lts))


def replay_lin(t: Tracer, args, command: Dict) -> Dict:
    bench, config = _program(t, args)
    if args.on_the_fly:
        spec = t.call("lang.spec", "repro.lang:spec_lts", bench.spec(), args.threads,
                      args.ops, config.workload, counted=False)
        t.count("lang.spec.states", spec.num_states)
        result = t.call(
            "verify.onthefly", "repro.verify:check_linearizability",
            bench.build(args.threads), bench.spec(), num_threads=args.threads,
            ops_per_thread=args.ops, workload=config.workload, on_the_fly=True,
        )
        expanded = result.states_expanded or 0
        t.count("verify.onthefly.expanded", expanded)
        if command.get("full_states"):
            t.count("verify.onthefly.expanded_of_full", expanded)
            t.count("verify.onthefly.full_states", command["full_states"])
        return {"exit": 0 if result.linearizable else 1}
    impl = _explore(t, bench, args, config)
    spec = t.call("lang.spec", "repro.lang:spec_lts", bench.spec(), args.threads,
                  args.ops, config.workload)
    t.count("lang.spec.states", spec.num_states)
    impl_quotient = _quotient(t, impl)
    spec_quotient = _quotient(t, spec)
    refinement = t.call("core.traces", "repro.core:trace_refines",
                        impl_quotient.lts, spec_quotient.lts)
    return {"exit": 0 if refinement.holds else 1, "states": impl.num_states,
            "quotient": impl_quotient.lts.num_states}


def replay_lockfree(t: Tracer, args, command: Dict) -> Dict:
    bench, config = _program(t, args)
    impl = _explore(t, bench, args, config)
    quotient = _quotient(t, impl)
    union, init_a, init_b = t.call("core.compare", "repro.core:disjoint_union",
                                   impl, quotient.lts)
    block_of = _partition_reduced(t, union, divergence=True)
    lock_free = block_of[init_a] == block_of[init_b]
    if not lock_free:
        t.call("core.divergence", "repro.core:find_divergence_lasso", impl)
    return {"exit": 0 if lock_free else 1, "states": impl.num_states,
            "quotient": quotient.lts.num_states}


def replay_compare(t: Tracer, args, command: Dict) -> Dict:
    left_path, right_path = args.operands
    left = t.call("core.aut.read", "repro.core:read_aut", left_path)
    right = t.call("core.aut.read", "repro.core:read_aut", right_path)
    if args.relation == "trace":
        forward = t.call("core.traces", "repro.core:trace_refines", left, right)
        backward = t.call("core.traces", "repro.core:trace_refines", right, left)
        return {"exit": 0 if forward.holds and backward.holds else 1}
    if args.relation != "branching" or not args.reduce:
        raise ValueError(f"no replay for compare {' '.join(args.operands)} without --reduce "
                         f"or with --relation {args.relation}")
    union, init_a, init_b = t.call("core.compare", "repro.core:disjoint_union", left, right)
    block_of = _partition_reduced(t, union, divergence=args.divergence)
    equivalent = block_of[init_a] == block_of[init_b]
    if not equivalent:
        t.call("core.compare", "repro.core:explain_inequivalence", left, right,
               divergence=args.divergence)
    return {"exit": 0 if equivalent else 1}


def replay_explore(t: Tracer, args, command: Dict) -> Dict:
    bench, config = _program(t, args)
    stats = t.call("build", "repro.util:Stats", counted=False)
    system = t.call("parallel.explore", "repro.parallel:maybe_parallel_explore",
                    bench.build(args.threads), config, workers=args.workers, stats=stats)
    t.count("parallel.shards", stats.counters.get("explore.shards", 0))
    t.count("parallel.requeues", stats.counters.get("explore.requeues", 0))
    t.count("parallel.worker_busy_us", stats.counters.get("explore.worker_busy_us", 0))
    t.count("parallel.worker_capacity_us",
            int(args.workers * stats.stage_seconds.get("explore", 0.0) * 1e6))
    t.call("core.aut.write", "repro.core:write_aut", system, args.out)
    t.call("parallel.serial", "repro.parallel:maybe_parallel_explore",
           bench.build(args.threads), config, workers=0, counted=False)
    return {"exit": 0, "states": system.num_states,
            "transitions": system.num_transitions, "sha256": sha256_file(args.out)}


REPLAYS = {
    "lin": replay_lin,
    "lockfree": replay_lockfree,
    "compare": replay_compare,
    "explore": replay_explore,
}


def mismatches(command: Dict, answer: Dict) -> List[str]:
    """Replayed answer fields that differ from the committed ones."""
    return [
        f"{command['id']}: {field} {value!r}, expected {command[field]!r}"
        for field, value in answer.items()
        if command.get(field) is not None and value != command[field]
    ]


class Pass(NamedTuple):
    tracer: Tracer
    seconds: float
    errors: List[Dict]
    mismatches: List[str]


def run_pass(commands: List[Dict], inputs_dir: str, work_dir: str, enabled: bool) -> Pass:
    """Replay every command once, tracing the layer calls if ``enabled``."""
    t = Tracer(enabled)
    errors: List[Dict] = []
    wrong: List[str] = []
    start = time.perf_counter()
    for command in commands:
        # Each CLI command starts with an empty heap; collecting the
        # previous command's systems here keeps later passes from paying
        # for earlier ones.
        gc.collect()
        t.command = command["id"]
        args = parse_command(render_argv(command, inputs_dir, work_dir))
        try:
            answer = REPLAYS[args.kind](t, args, command)
        except LayerError as exc:
            errors.append({"command": command["id"], "span": exc.span, "error": str(exc)})
            continue
        except Exception as exc:  # program build or replay glue, not a layer
            errors.append({"command": command["id"], "span": "build",
                           "error": f"{type(exc).__name__}: {exc}"})
            continue
        wrong.extend(mismatches(command, answer))
    return Pass(t, time.perf_counter() - start, errors, wrong)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (0 where a layer is unused)."""
    s, c = t.seconds, t.counts
    return {
        "lang.explore.s": s["lang.explore"],
        "lang.explore.states": c["lang.explore.states"],
        "lang.explore.transitions": c["lang.explore.transitions"],
        "lang.explore.us_per_transition":
            _ratio(s["lang.explore"] * 1e6, c["lang.explore.transitions"]),
        "lang.spec.s": s["lang.spec"],
        "lang.spec.states": c["lang.spec.states"],
        "core.aut.read_s": s["core.aut.read"],
        "core.aut.write_s": s["core.aut.write"],
        "core.reduce.s": s["core.reduce"],
        "core.reduce.removed_frac":
            _ratio(c["core.reduce.states_removed"], c["core.reduce.states_in"]),
        "core.refine.s": s["core.refine"],
        "core.refine.blocks": c["core.refine.blocks"],
        "core.quotient.s": s["core.quotient"],
        "core.traces.s": s["core.traces"],
        "core.compare.s": s["core.compare"],
        "core.divergence.s": s["core.divergence"],
        "verify.onthefly.s": s["verify.onthefly"],
        "verify.onthefly.expanded": c["verify.onthefly.expanded"],
        "verify.onthefly.expanded_frac":
            _ratio(c["verify.onthefly.expanded_of_full"], c["verify.onthefly.full_states"]),
        "parallel.explore.s": s["parallel.explore"],
        "parallel.speedup_vs_serial": _ratio(s["parallel.serial"], s["parallel.explore"]),
        "parallel.worker_busy_frac":
            _ratio(c["parallel.worker_busy_us"], c["parallel.worker_capacity_us"]),
        "parallel.shards": c["parallel.shards"],
        "parallel.requeues": c["parallel.requeues"],
    }


def null_failed_layers(metrics: Dict[str, Optional[float]], errors: List[Dict]) -> None:
    """Set the metrics of every span that raised to ``None``."""
    for error in errors:
        for name in SPAN_METRICS.get(error["span"], []):
            metrics[name] = None


def span_cost_seconds(calls: int = 20000, repeats: int = 5) -> float:
    """What recording one span adds to a layer call, in seconds.

    Measured directly, traced against untraced calls of a trivial
    function: the cost is a few microseconds per span, far below the
    5-10% by which two consecutive passes over the same commands differ
    on a shared machine, so comparing pass times would measure noise.
    """
    def loop(enabled: bool) -> float:
        t = Tracer(enabled)
        start = time.perf_counter()
        for _ in range(calls):
            t.call("overhead", "math:fabs", 1.0)
        return time.perf_counter() - start

    loop(False)
    return max(0.0, median([loop(True) - loop(False) for _ in range(repeats)]) / calls)


def traced_run(workload: str, inputs_dir: str, work_dir: str) -> Dict:
    commands = load_expected()["workloads"][workload]["commands"]
    # Import the layers before the warm pass so that it times the same
    # work as a traced pass; a missing module surfaces later as a layer
    # error of the call that needs it.
    for module in LAYER_MODULES:
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    # The first pass warms heap and file cache and is discarded.
    passes = [run_pass(commands, inputs_dir, work_dir, enabled)
              for enabled in (False,) + (True,) * TRACED_PASSES]
    traced = passes[1:]
    per_pass = [layer_metrics(done.tracer) for done in traced]
    metrics: Dict[str, Optional[float]] = {
        name: median([values[name] for values in per_pass]) for name in per_pass[0]
    }
    errors = list({json.dumps(error, sort_keys=True): error
                   for done in passes for error in done.errors}.values())
    null_failed_layers(metrics, errors)
    cost = span_cost_seconds()
    metrics["trace.overhead_frac"] = median(
        [len(done.tracer.spans) * cost / done.seconds for done in traced]
    )
    return {
        "metrics": metrics,
        "layer_seconds":
            None if errors else median([done.tracer.layer_seconds for done in traced]),
        "pass_seconds": {"warm": passes[0].seconds,
                         "traced": [done.seconds for done in traced]},
        "errors": errors,
        "mismatches": sorted({wrong for done in passes for wrong in done.mismatches}),
        "spans": traced[-1].tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", default="")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    Path(args.work).mkdir(parents=True, exist_ok=True)
    print(json.dumps(traced_run(args.workload, args.inputs, args.work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
