#!/usr/bin/env python
"""End-to-end service smoke: SIGKILL the daemon mid-job, restart, resume.

The process-level counterpart of ``tests/service/test_daemon.py`` (which
exercises the same machinery in-process).  Scenario, as run by the CI
``service-smoke`` job:

1. start ``repro serve`` on a Unix socket;
2. submit ``lin hm_list_buggy`` (a FALSE object, large enough that the
   job is reliably mid-flight when we strike);
3. wait for the job's checkpoint file to appear, then SIGKILL the daemon
   -- no graceful anything;
4. restart the daemon on the same state dir;
5. resubmit: the job must *resume from the checkpoint* and report FALSE
   (exit 1) with the direct CLI run's report, line for line;
6. resubmit once more: the verdict must now be *served from the cache*,
   with no re-exploration, and the same report.

A report is the lines a run prints after its header (and, for
``submit``, after its ``accepted`` / ``progress:`` / ``note:`` lines),
with only the ``(N.NNs)`` time fields masked.

Exits 0 when every step holds, 1 with a diagnostic otherwise.
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

OBJECT = "hm_list_buggy"
DIRECT_EXIT_FALSE = 1
TIME_FIELD = re.compile(r"\(\d+\.\d\ds\)")
SUBMIT_LINES = ("accepted as ", "progress: ", "note: ")


def log(message):
    print(f"[service-smoke] {message}", flush=True)


def fail(message):
    log(f"FAIL: {message}")
    sys.exit(1)


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    fail(f"timed out after {timeout}s waiting for {what}")


def report(stdout, skip=()):
    """The report block of a run's output (see the module docstring)."""
    return [
        TIME_FIELD.sub("(-.--s)", line)
        for line in stdout.splitlines()[1:]
        if not line.startswith(skip)
    ]


def check_report(name, run, expected):
    served = report(run.stdout, SUBMIT_LINES)
    if served != expected:
        fail(f"{name} report differs from the direct run:\n"
             "--- direct ---\n" + "\n".join(expected) + "\n"
             "--- served ---\n" + "\n".join(served))


def start_daemon(socket_path, state_dir, env):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path, "--state-dir", state_dir,
         "--checkpoint-interval", "0.05"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    wait_for(lambda: os.path.exists(socket_path) or proc.poll() is not None,
             timeout=30, what="daemon socket")
    if proc.poll() is not None:
        fail(f"daemon exited early:\n{proc.stdout.read()}")
    return proc


def submit(socket_path, env, extra=()):
    return subprocess.run(
        [sys.executable, "-m", "repro", "submit", "lin", OBJECT,
         "--socket", socket_path, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def main():
    root = tempfile.mkdtemp(prefix="repro-service-smoke-")
    socket_path = os.path.join(root, "svc.sock")
    state_dir = os.path.join(root, "state")
    jobs_dir = os.path.join(state_dir, "jobs")
    env = dict(os.environ)

    # -- the ground truth: the direct CLI run -------------------------
    log(f"direct run: repro lin {OBJECT}")
    direct = subprocess.run(
        [sys.executable, "-m", "repro", "lin", OBJECT],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    if direct.returncode != DIRECT_EXIT_FALSE:
        fail(f"direct run exited {direct.returncode}, expected "
             f"{DIRECT_EXIT_FALSE}:\n{direct.stdout}")
    if "linearizable: FALSE" not in direct.stdout:
        fail(f"direct run did not report FALSE:\n{direct.stdout}")
    if "<initial state>" not in direct.stdout:
        fail("direct run produced no counterexample text")
    expected = report(direct.stdout)

    # -- daemon up, job in, SIGKILL mid-flight ------------------------
    daemon = start_daemon(socket_path, state_dir, env)
    log(f"daemon up (pid {daemon.pid}); submitting {OBJECT}")
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro", "submit", "lin", OBJECT,
         "--socket", socket_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )

    def checkpoint_present():
        return any(name.endswith(".ckpt") for name in
                   os.listdir(jobs_dir)) if os.path.isdir(jobs_dir) else False

    wait_for(checkpoint_present, timeout=60, what="a job checkpoint")
    log("checkpoint on disk; SIGKILLing the daemon mid-job")
    daemon.send_signal(signal.SIGKILL)
    daemon.wait(timeout=30)
    victim.wait(timeout=60)  # client sees the dead socket and gives up
    if not checkpoint_present():
        fail("checkpoint vanished after SIGKILL")

    # -- restart, resume, verify parity -------------------------------
    daemon = start_daemon(socket_path, state_dir, env)
    log("daemon restarted on the same state dir; resubmitting")
    resumed = submit(socket_path, env)
    if resumed.returncode != DIRECT_EXIT_FALSE:
        fail(f"resumed run exited {resumed.returncode}, expected "
             f"{DIRECT_EXIT_FALSE}:\n{resumed.stdout}")
    if "resumed from checkpoint" not in resumed.stdout:
        fail(f"resubmission did not resume from the checkpoint:\n"
             f"{resumed.stdout}")
    check_report("resumed", resumed, expected)
    log("resumed verdict FALSE with the direct run's report, line for line")

    # -- and the third submission is a cache hit ----------------------
    cached = submit(socket_path, env)
    if cached.returncode != DIRECT_EXIT_FALSE:
        fail(f"cached run exited {cached.returncode}:\n{cached.stdout}")
    if "served from cache" not in cached.stdout:
        fail(f"second resubmission was not served from cache:\n"
             f"{cached.stdout}")
    check_report("cached", cached, expected)
    log("cache hit with the identical report; shutting down")

    daemon.send_signal(signal.SIGTERM)
    daemon.wait(timeout=30)
    if daemon.returncode != 0:
        fail(f"graceful shutdown exited {daemon.returncode}")
    shutil.rmtree(root, ignore_errors=True)
    log("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
