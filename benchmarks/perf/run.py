"""Time-to-verdict benchmark of the ``repro`` CLI, with a traced layer breakdown.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace 0|1] [--out FILE]

Every command of a workload runs as a fresh ``python -m repro ...``
process, one at a time: a closed loop with one client, which is what a
CLI user waits for, interpreter start and imports included.  Passes
over the workload's commands repeat, each in an order shuffled by
``--seed``, until ``--seconds`` have passed (the first pass always
completes).  Every output is checked against ``expected.json``.
A fixed reference program runs before every command and set-up round,
and the reported times are scaled by it (see REFERENCE_PROGRAM); the
unscaled command times are kept in the ``--out`` file as
``suite_wall_s``, ``case_wall_s.geomean`` and per-command ``median_s``.

With ``--trace 0`` (the default) the last line of output is a JSON
object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the same timed loop is followed by the startup probe and
the in-process traced run (``traced.py``) and the JSON object holds the
per-layer metrics instead.  Without ``--workload`` all workloads run
and their metrics are keyed ``<workload>.<metric>``.  ``--out`` writes
everything measured, per-command medians included, for ``compare.py``.

The program is run from the checkout this file lives in
(``src/repro``); without it the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from checks import check_output, load_expected, render_argv, sha256_file, tally
from summary import geomean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-up is repeated and its median reported, so that one slow file
#: system call does not move ``setup_s``.
SETUP_ROUNDS = 5
STARTUP_PROBES = 10
#: A command may run for at most max(30 s, 10 x its committed median).
MIN_TIMEOUT_S = 30.0
TIMEOUT_FACTOR = 10.0
#: Commands stop being started this long after the measuring window,
#: so that a run ends well within three minutes even when commands hang.
GRACE_S = 60.0
TRACE_TIMEOUT_S = 100.0

#: The machine-speed reference: a fixed pure-Python program, unrelated to
#: the code under test, run in a fresh process before every command.  On
#: a shared 2-core Xeon container the speed of the whole box drifts by
#: 10-20% over minutes and every command drifts with it: over 20-second
#: windows the reference's median correlates with the commands' at
#: r = 0.93, and scaling by it cut the spread of ten runs' suite_s from
#: 5-22% to 1-9%.  Each set-up round and each command is scaled by
#: REFERENCE_NOMINAL_S / (the reference time measured just before it),
#: i.e. to the speed at which the reference took REFERENCE_NOMINAL_S s.
REFERENCE_PROGRAM = (
    "d = {}\n"
    "for i in range(150000):\n"
    "    d[(i, i % 7, 'x')] = (i, None)\n"
    "s = sum(v[0] for k, v in d.items() if k[1] == 3)\n"
)
#: Median reference time on the machine the baseline was recorded on.
REFERENCE_NOMINAL_S = 0.118


@dataclass
class Execution:
    seconds: float
    exit_code: Optional[int]
    rss_mb: float
    output: str
    timed_out: bool
    reference_s: float = 0.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(argv: List[str], env: Dict[str, str], timeout: float,
                log_path: Path) -> Execution:
    """Run ``argv`` to completion; wall time spans spawn to exit.

    The process gets a session of its own, so that on a timeout its
    workers are killed with it, and so that no worker it leaves behind
    outlives the measurement.  Peak RSS comes from ``wait4`` and covers
    the process and the children it reaped (``--workers`` forks).
    """
    fired = threading.Event()

    def on_timeout() -> None:
        fired.set()
        _kill_group(proc.pid)

    with open(log_path, "w+b") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the command down with us
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the command left running
        log.seek(0)
        output = log.read().decode("utf-8", errors="replace")
    return Execution(seconds, proc.returncode, usage.ru_maxrss / 1024.0, output,
                     fired.is_set())


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """Digest of the program's sources, naming the cached input files."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_inputs(keys: List[str], env: Dict[str, str]) -> Path:
    """The stored systems ``keys`` need, written once per source tree.

    They are generated by ``make_inputs.py`` in a process of its own
    the first time this source tree is benchmarked and reused after
    that; their digests are checked on every use.
    """
    inputs_root = RESULTS / "inputs"
    target = inputs_root / source_digest()
    if not target.is_dir():
        staging = inputs_root / f"tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        subprocess.run([sys.executable, str(HERE / "make_inputs.py"), str(staging), *keys],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        for stale in inputs_root.iterdir():
            if stale != staging:
                shutil.rmtree(stale, ignore_errors=True)
        staging.rename(target)
    return target


def set_up(spec: Dict, expected: Dict, env: Dict[str, str], work_dir: Path):
    """One set-up round: inputs present and correct, CLI imports compiled."""
    problems = []
    inputs_dir = None
    if spec["input_keys"]:
        inputs_dir = ensure_inputs(spec["input_keys"], env)
        for key in spec["input_keys"]:
            for name in (f"{key}.aut", f"{key}.quotient.aut"):
                if sha256_file(inputs_dir / name) != expected["inputs"][name]:
                    problems.append(f"input {name}: sha256 differs from expected.json")
    listing = run_process([sys.executable, "-m", "repro", "list"], env, MIN_TIMEOUT_S,
                          work_dir / "setup.log")
    if listing.exit_code != 0:
        problems.append(f"repro list exited {listing.exit_code}")
    return inputs_dir, problems


def reference_seconds(env: Dict[str, str], work_dir: Path) -> float:
    """One timed run of REFERENCE_PROGRAM in a fresh process."""
    return run_process([sys.executable, "-c", REFERENCE_PROGRAM], env, MIN_TIMEOUT_S,
                       work_dir / "reference.log").seconds


def timed_loop(name: str, commands: List[Dict], seed: int, seconds: float,
               env: Dict[str, str], inputs_dir, work_dir: Path) -> Dict:
    """Closed loop over shuffled passes, each command preceded by the reference.

    Returns the executions per command (each carrying the reference time
    measured just before it) and the problems found in each.
    """
    rng = random.Random(f"{seed}/{name}")
    samples: Dict[str, List[Execution]] = {command["id"]: [] for command in commands}
    problems: List[List[str]] = []
    failures: List[Dict] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for command in rng.sample(commands, len(commands)):
            elapsed = time.perf_counter() - start
            if passes and elapsed >= seconds:
                return {"samples": samples, "problems": problems, "failures": failures,
                        "passes": passes}
            argv = render_argv(command, inputs_dir, work_dir)
            reference = reference_seconds(env, work_dir)
            timeout = min(max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * command["median_s"]),
                          max(1.0, seconds + GRACE_S - elapsed))
            run = run_process([sys.executable, "-m", "repro", *argv], env, timeout,
                              work_dir / "command.log")
            run.reference_s = reference
            found = check_output(command, argv, run.exit_code, run.output, run.timed_out)
            samples[command["id"]].append(run)
            problems.append(found)
            if found:
                failures.append({"command": command["id"], "problems": found,
                                 "output_tail": run.output[-2000:]})
        passes += 1


def startup_probe(env: Dict[str, str], work_dir: Path) -> float:
    """Median time of ``python -c "import repro.cli"`` in a fresh process."""
    runs = [run_process([sys.executable, "-c", "import repro.cli"], env, MIN_TIMEOUT_S,
                        work_dir / "startup.log")
            for _ in range(STARTUP_PROBES)]
    return median([run.seconds for run in runs])


def traced_layers(name: str, env: Dict[str, str], inputs_dir, work_dir: Path) -> Dict:
    """Run ``traced.py``; on any failure every layer metric is null."""
    argv = [sys.executable, str(HERE / "traced.py"), "--workload", name,
            "--inputs", str(inputs_dir or ""), "--work", str(work_dir / "traced")]
    run = run_process(argv, env, TRACE_TIMEOUT_S, work_dir / "traced.log")
    try:
        if run.exit_code != 0:
            raise ValueError(f"exit code {run.exit_code}")
        return json.loads(run.output.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return {"metrics": {}, "layer_seconds": None, "mismatches": [],
                "errors": [{"command": None, "span": "traced.py",
                            "error": f"{exc}: {run.output[-2000:]}"}]}


def run_workload(name: str, expected: Dict, seed: int, seconds: float, trace: bool,
                 env: Dict[str, str], work_dir: Path) -> Dict:
    spec = expected["workloads"][name]
    commands = spec["commands"]
    setup_times, setup_problems = [], []
    inputs_dir = None
    for _ in range(SETUP_ROUNDS):
        reference = reference_seconds(env, work_dir)
        start = time.perf_counter()
        inputs_dir, problems = set_up(spec, expected, env, work_dir)
        setup_times.append((time.perf_counter() - start) * REFERENCE_NOMINAL_S / reference)
        setup_problems += problems
    loop = timed_loop(name, commands, seed, seconds, env, inputs_dir, work_dir)
    attempted, failed = tally(loop["problems"])
    cases = {}
    for command_id, runs in loop["samples"].items():
        times = [run.seconds for run in runs]
        cases[command_id] = {
            "median_s": median(times), "min_s": min(times), "max_s": max(times),
            "n": len(times),
            "scaled_median_s": median([run.seconds * REFERENCE_NOMINAL_S / run.reference_s
                                       for run in runs]),
            "peak_rss_mb": median([run.rss_mb for run in runs]),
            "samples_s": times,
            "reference_s": [run.reference_s for run in runs],
        }
    medians = [case["median_s"] for case in cases.values()]
    scaled = [case["scaled_median_s"] for case in cases.values()]
    result = {
        "passes": loop["passes"],
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not setup_problems,
        "setup_problems": sorted(set(setup_problems)),
        "setup_rounds_s": setup_times,
        "failures": loop["failures"],
        "metrics": {
            "setup_s": median(setup_times),
            "suite_s": sum(scaled),
            "case_s.geomean": geomean(scaled),
            "peak_rss_mb": max(case["peak_rss_mb"] for case in cases.values()),
            "failed_frac": failed / attempted,
            "suite_wall_s": sum(medians),
            "case_wall_s.geomean": geomean(medians),
            "reference_s": median([r for case in cases.values() for r in case["reference_s"]]),
        },
        "cases": cases,
    }
    if trace:
        startup_s = startup_probe(env, work_dir)
        traced = traced_layers(name, env, inputs_dir, work_dir)
        layer_seconds = traced.get("layer_seconds")
        suite_s = result["metrics"]["suite_wall_s"]
        residual = None
        if layer_seconds is not None:
            residual = (suite_s - len(commands) * startup_s - layer_seconds) / suite_s
        result["layers"] = {"cli.startup_s": startup_s, "cli.residual_frac": residual,
                            **traced["metrics"]}
        result["trace"] = {key: value for key, value in traced.items() if key != "metrics"}
        result["correct"] = result["correct"] and not traced["mismatches"]
    return result


def metric_entries(results: Dict, bench: Dict, trace: bool) -> Dict:
    """The metrics ``BENCHMARK.json`` lists, with their units."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    entries = {}
    for workload, result in results.items():
        values = result["layers"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{workload}."
        for metric in listed:
            entries[prefix + metric["name"]] = {"value": values.get(metric["name"]),
                                                "unit": metric["unit"]}
    return entries


def print_report(results: Dict, bench: Dict) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_frac"] = "ratio"
    for workload, result in results.items():
        print(f"{workload}: {result['attempted']} commands over {result['passes']}+ passes, "
              f"{result['failed']} failed, correct={result['correct']}")
        rows = dict(result["metrics"])
        rows.update(result.get("layers", {}))
        for case_id, case in result["cases"].items():
            rows[f"case.{workload}.{case_id}.s"] = case["median_s"]
        for name, value in rows.items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<46} {shown:>12} {units.get(name, 's')}")
        for problem in result["setup_problems"]:
            print(f"  SETUP PROBLEM: {problem}")
        for failure in result["failures"]:
            print(f"  FAILED {failure['command']}: {'; '.join(failure['problems'])}")
        for error in result.get("trace", {}).get("errors", []):
            print(f"  TRACE ERROR {error['command']} [{error['span']}]: {error['error'][:300]}")
        for mismatch in result.get("trace", {}).get("mismatches", []):
            print(f"  TRACE MISMATCH {mismatch}")


def environment() -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of the traced run")
    parser.add_argument("--out", default=None, help="write the full results as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected()
    names = args.workload or list(expected["workloads"])
    unknown = [name for name in names if name not in expected["workloads"]]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(expected['workloads'])}")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    # SIGTERM unwinds like Ctrl-C, so the running command is killed and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = program_env()
    work_dir = RESULTS / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        results = {name: run_workload(name, expected, args.seed, seconds, bool(args.trace),
                                      env, work_dir)
                   for name in names}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": "repro.perfbench/v1", "seed": args.seed,
                       "seconds": seconds, "trace": args.trace,
                       "environment": environment(), "workloads": results},
                      handle, indent=1)
            handle.write("\n")
    print_report(results, bench)
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metric_entries(results, bench, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
