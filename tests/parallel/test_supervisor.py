"""Sharded exploration: determinism under scheduling, failure and resume.

The contract under test is the PR's acceptance criterion: the ``.aut``
dump of a parallel run is byte-for-byte identical to serial exploration
-- including runs where workers are killed, hang, or corrupt their
result frames mid-shard -- and a budget-exhausted parallel run leaves a
checkpoint from which both serial and parallel resumption reproduce the
uninterrupted result exactly.
"""

import os
import time

import pytest
from hypothesis import given, settings

from repro.core.aut import dumps_aut
from repro.lang import ClientConfig, explore
from repro.lang.checkpoint import CheckpointSink, load_checkpoint
from repro.objects import get
from repro.parallel import (
    FaultPlan,
    ParallelConfig,
    maybe_parallel_explore,
    parallel_explore,
)
from repro.parallel.supervisor import Supervisor, _Worker
from repro.parallel.worker import HEARTBEAT_SECONDS
from repro.testing.generators import ProgramShape, program_strategy
from repro.util.budget import BudgetExhausted, RunBudget
from repro.util.metrics import Stats


def _bench_config(key, threads=2, ops=2, max_states=None):
    bench = get(key)
    program = bench.build(threads)
    config = ClientConfig(
        num_threads=threads,
        ops_per_thread=ops,
        workload=bench.default_workload(),
        max_states=max_states,
    )
    return program, config


def _parallel(workers=2, shard_states=16, **kwargs):
    return ParallelConfig(workers=workers, shard_states=shard_states, **kwargs)


# ----------------------------------------------------------------------
# fault-free determinism
# ----------------------------------------------------------------------

def test_parallel_matches_serial_treiber():
    program, config = _bench_config("treiber")
    serial = dumps_aut(explore(program, config))
    lts = parallel_explore(program, config, _parallel(workers=2))
    assert dumps_aut(lts) == serial


def test_parallel_matches_serial_ms_queue_four_workers():
    program, config = _bench_config("ms_queue")
    serial = dumps_aut(explore(program, config))
    lts = parallel_explore(program, config, _parallel(workers=4,
                                                      shard_states=128))
    assert dumps_aut(lts) == serial


def test_single_worker_still_uses_the_protocol():
    program, config = _bench_config("treiber")
    serial = dumps_aut(explore(program, config))
    stats = Stats()
    lts = parallel_explore(program, config, _parallel(workers=1), stats=stats)
    assert dumps_aut(lts) == serial
    assert stats.counters["explore.shards"] > 0
    assert stats.counters["explore.worker_busy_us"] > 0


def test_maybe_parallel_explore_dispatch():
    program, config = _bench_config("treiber")
    serial = dumps_aut(maybe_parallel_explore(program, config, workers=0))
    assert serial == dumps_aut(explore(program, config))
    sharded = maybe_parallel_explore(program, config, workers=2,
                                     shard_states=32)
    assert dumps_aut(sharded) == serial


def test_stats_record_states_like_serial():
    program, config = _bench_config("treiber")
    serial_stats, parallel_stats = Stats(), Stats()
    explore(program, config, stats=serial_stats)
    parallel_explore(program, config, _parallel(), stats=parallel_stats)
    for counter in ("explore.states", "explore.transitions"):
        assert parallel_stats.counters[counter] == serial_stats.counters[counter]


# ----------------------------------------------------------------------
# fault injection: every kind recovers to a byte-identical result
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec,counter", [
    ("kill:0@10", "explore.worker_crashes"),
    ("exit:1@10", "explore.worker_crashes"),
    ("corrupt:0@5", "explore.corrupt_frames"),
])
def test_fault_recovery_is_byte_identical(spec, counter):
    program, config = _bench_config("treiber")
    serial = dumps_aut(explore(program, config))
    stats = Stats()
    parallel = _parallel(fault_plan=FaultPlan.parse(spec))
    lts = parallel_explore(program, config, parallel, stats=stats)
    assert dumps_aut(lts) == serial
    assert stats.counters[counter] >= 1
    assert stats.counters["explore.requeues"] >= 1


def test_hung_worker_is_detected_and_shard_requeued():
    program, config = _bench_config("treiber")
    serial = dumps_aut(explore(program, config))
    stats = Stats()
    parallel = _parallel(
        fault_plan=FaultPlan.parse("stall:0@10"),
        heartbeat_timeout=1.0,
    )
    lts = parallel_explore(program, config, parallel, stats=stats)
    assert dumps_aut(lts) == serial
    assert stats.counters["explore.worker_hangs"] >= 1


def test_repeated_kills_degrade_to_in_process_fallback():
    # Every spawned worker is shot after its first expansion; with a
    # single allowed retry per shard the pool shrinks 2 -> 1 -> 0 and
    # the supervisor finishes serially -- still byte-identical.
    program, config = _bench_config("treiber")
    serial = dumps_aut(explore(program, config))
    stats = Stats()
    parallel = _parallel(
        fault_plan=FaultPlan.parse(",".join(["kill:*@1"] * 12)),
        max_shard_retries=1,
        backoff_base=0.01,
    )
    lts = parallel_explore(program, config, parallel, stats=stats)
    assert dumps_aut(lts) == serial
    assert stats.counters["explore.degraded_workers"] >= 1


def _fake_busy_worker(supervisor, index=0):
    """A _Worker whose process is a dead stand-in child, mid-shard."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    res_r, cmd_w = os.pipe()
    worker = _Worker(index=index, pid=pid, cmd=os.fdopen(cmd_w, "wb"),
                     res_fd=res_r)
    supervisor.workers[index] = worker
    return worker


def test_drain_serial_requeues_in_flight_shards():
    # Degrading to target == 0 while another worker is still mid-shard
    # must requeue that shard before the pool is torn down; dropping it
    # leaves the expansion table short of the reachable closure and the
    # final replay asserts.
    program, config = _bench_config("treiber")
    supervisor = Supervisor(program, config, _parallel())
    worker = _fake_busy_worker(supervisor)
    worker.shard = (0, [supervisor.init_key])
    supervisor.target = 0
    supervisor._drain_serial()
    assert not supervisor.workers
    assert not supervisor.pending
    assert supervisor.init_key in supervisor.expansions


def test_shard_deadline_stretches_hang_detection():
    # Heartbeats only flow between state expansions, so with a shard
    # deadline configured the supervisor waits for the child's own clean
    # exhaustion (deadline + one heartbeat of grace) before shooting it.
    program, config = _bench_config("treiber")
    parallel = _parallel(heartbeat_timeout=1.0, shard_deadline=5.0)
    supervisor = Supervisor(program, config, parallel)
    worker = _fake_busy_worker(supervisor)
    worker.shard = (0, [supervisor.init_key])

    worker.last_frame = time.monotonic() - 3.0  # silent, but within slack
    supervisor._check_hangs()
    assert 0 in supervisor.workers

    worker.last_frame = time.monotonic() - 7.0  # past deadline + grace
    supervisor._check_hangs()
    assert 0 not in supervisor.workers
    assert supervisor.backoff  # the shard was requeued, not lost


# ----------------------------------------------------------------------
# budget exhaustion, salvage checkpoints, resume
# ----------------------------------------------------------------------

def test_deadline_salvages_resumable_checkpoint(tmp_path):
    program, config = _bench_config("ms_queue")
    serial = dumps_aut(explore(program, config))
    path = str(tmp_path / "salvage.ckpt")
    # A stalled worker plus a short global deadline: the run cannot
    # finish, so it must exhaust with reason=deadline and salvage.
    parallel = _parallel(
        fault_plan=FaultPlan.parse("stall:0@5"),
        heartbeat_timeout=30.0,
    )
    with pytest.raises(BudgetExhausted) as exc:
        parallel_explore(
            program, config, parallel,
            budget=RunBudget(deadline_seconds=2.0),
            checkpoint=CheckpointSink(path, interval_seconds=3600.0),
        )
    assert exc.value.reason == "deadline"

    # The salvaged checkpoint is a serial safe point ...
    resumed_serial = explore(program, config, resume=load_checkpoint(path))
    assert dumps_aut(resumed_serial) == serial
    # ... and parallel resume reuses the carried expansions too.
    resumed_parallel = parallel_explore(
        program, config, _parallel(), resume=load_checkpoint(path)
    )
    assert dumps_aut(resumed_parallel) == serial


def test_max_states_cap_applies_to_parallel_runs(tmp_path):
    program, config = _bench_config("treiber", max_states=200)
    path = str(tmp_path / "cap.ckpt")
    with pytest.raises(BudgetExhausted) as exc:
        parallel_explore(
            program, config, _parallel(),
            checkpoint=CheckpointSink(path, interval_seconds=0.0),
        )
    assert exc.value.reason == "states"

    full_program, full_config = _bench_config("treiber")
    serial = dumps_aut(explore(full_program, full_config))
    resumed = explore(full_program, full_config, resume=load_checkpoint(path))
    assert dumps_aut(resumed) == serial


def test_parallel_resume_from_serial_checkpoint(tmp_path):
    # Checkpoints are one format: a serially-produced checkpoint feeds a
    # parallel resume and vice versa (the converse is covered above).
    program, config = _bench_config("treiber")
    serial = dumps_aut(explore(program, config))
    capped_program, capped_config = _bench_config("treiber", max_states=300)
    path = str(tmp_path / "serial.ckpt")
    with pytest.raises(BudgetExhausted):
        explore(capped_program, capped_config,
                checkpoint=CheckpointSink(path, interval_seconds=0.0))
    resumed = parallel_explore(
        program, config, _parallel(), resume=load_checkpoint(path)
    )
    assert dumps_aut(resumed) == serial


# ----------------------------------------------------------------------
# property: parallel == serial on generated client programs
# ----------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(instance=program_strategy(shape=ProgramShape(max_body_ops=4)))
def test_parallel_equals_serial_on_random_programs(instance):
    program, workload = instance
    config = ClientConfig(
        num_threads=2,
        ops_per_thread=1,
        workload=workload,
        max_states=4000,
    )
    try:
        serial = dumps_aut(explore(program, config))
    except BudgetExhausted:
        return  # state cap hit; nothing to compare
    lts = parallel_explore(program, config, _parallel(workers=2,
                                                      shard_states=8))
    assert dumps_aut(lts) == serial


# ----------------------------------------------------------------------
# heartbeat configuration
# ----------------------------------------------------------------------

def test_heartbeat_interval_must_leave_room_for_the_grace_window():
    program, config = _bench_config("treiber")
    budget = RunBudget()
    # A liveness timeout at (or below) the workers' heartbeat interval:
    # every worker would be declared hung between two of its own beats.
    for timeout in (HEARTBEAT_SECONDS, 0.2):
        bad = _parallel(heartbeat_timeout=timeout)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            Supervisor(program, config, bad, budget, Stats())


def test_config_exposes_requeue_backoff_policy():
    parallel = _parallel(backoff_base=0.1, backoff_cap=0.4)
    policy = parallel.backoff_policy()
    assert [policy.delay(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.4]
    assert policy.jitter == 0.0  # requeue scheduling stays deterministic
