"""Worker-side loop of the sharded exploration subsystem.

A worker is forked by the supervisor with two pipe ends (commands in,
frames out) and runs :func:`worker_main`: block on the command pipe,
expand every state key in the received shard with the same
:class:`repro.lang.client.ExpansionContext` the serial loop uses, and
send the ordered edge lists back.  Workers never intern states -- they
compute raw ``(key, edges)`` pairs, and the supervisor replays them in
serial DFS order at merge time, which is what makes the merged system
bit-identical to a serial run.

Failure discipline: anything that goes wrong inside a shard is reported
as an ``error`` frame (with the traceback) so the supervisor can log it
and requeue; a budget exhaustion is reported as an ``exhausted`` frame
(carrying the structured :class:`repro.util.budget.Exhaustion` record)
so the supervisor can distinguish "this shard is too big for its slice
of the deadline" from a genuine crash.  Injected faults from a
:class:`repro.parallel.faults.FaultPlan` trigger between state
expansions -- ``kill`` raises SIGKILL against the worker itself, which
is exactly the signature of an OOM-killed or externally killed child.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Any, BinaryIO, List, Optional, Tuple

from ..lang.client import ExpansionContext
from ..util.budget import BudgetExhausted, ChildAllowance
from .faults import Fault, FaultPlan, STALL_SECONDS
from .protocol import (
    MSG_ERROR,
    MSG_EXHAUSTED,
    MSG_HELLO,
    MSG_PROGRESS,
    MSG_RESULT,
    MSG_SHARD,
    MSG_STOP,
    read_frame,
    write_frame,
)

#: Spacing of progress heartbeats while inside a shard.  Heartbeats are
#: emitted *between* state expansions (there is no timer thread or
#: SIGALRM in the child), so a single ``expand()`` call longer than the
#: supervisor's ``heartbeat_timeout`` looks like a stall; see
#: ``ParallelConfig.heartbeat_timeout`` for the supervisor-side slack.
HEARTBEAT_SECONDS = 0.25


def _apply_fault(fault: Fault, out: BinaryIO) -> bool:
    """Act on an injected fault; returns ``True`` if the next result
    frame should be corrupted (the ``corrupt`` kind).
    """
    fault.fired = True
    kind = fault.kind
    if kind == "kill":
        out.flush()
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "exit":
        out.flush()
        os._exit(0)
    elif kind == "stall":
        time.sleep(STALL_SECONDS)
    elif kind == "corrupt":
        return True
    return False


def worker_main(
    worker_index: int,
    context: ExpansionContext,
    command_fd: int,
    result_fd: int,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    """Run the worker loop; never returns (ends in ``os._exit``).

    Called in the child immediately after ``os.fork``: ``context`` and
    ``fault_plan`` arrive via fork memory inheritance, so the fault
    plan's fired-flags are this child's private copies.
    """
    commands = os.fdopen(command_fd, "rb", buffering=0)
    out = os.fdopen(result_fd, "wb")
    plan = fault_plan if fault_plan else None
    states_expanded = 0
    corrupt_next = False
    try:
        write_frame(out, (MSG_HELLO, worker_index, os.getpid()))
        while True:
            message = read_frame(commands, trusted=True)
            if message is None or message[0] == MSG_STOP:
                break
            if message[0] != MSG_SHARD:
                raise RuntimeError(f"unexpected command {message[0]!r}")
            _, shard_id, keys, allowance = message
            corrupt_next = run_shard(
                out, worker_index, context, shard_id, keys, allowance,
                plan, corrupt_next, states_counter=states_expanded,
            )
            states_expanded += len(keys)
    except BrokenPipeError:
        pass  # supervisor went away; nothing left to report to
    except Exception:
        try:
            write_frame(out, (MSG_ERROR, worker_index, None,
                              traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            out.flush()
        except Exception:
            pass
        os._exit(0)


def run_shard(
    out: BinaryIO,
    worker_index: int,
    context: ExpansionContext,
    shard_id: int,
    keys: List[Any],
    allowance: Optional[ChildAllowance],
    plan: Optional[FaultPlan],
    corrupt_next: bool,
    states_counter: int,
) -> bool:
    """Expand one shard and send the result (or exhaustion/error) frame.

    A broken pipe propagates to :func:`worker_main`: there is no
    supervisor left to report a shard error to.  Returns the updated
    corrupt-next-frame flag.
    """
    budget = allowance.to_budget() if allowance is not None else None
    started = time.monotonic()
    last_beat = started
    expansions: List[Tuple[Any, List[Any]]] = []
    try:
        for done, key in enumerate(keys):
            if budget is not None:
                budget.check("explore-shard", states=done)
            expansions.append((key, context.expand(key)))
            if plan is not None:
                fault = plan.next_for(worker_index, states_counter + done + 1)
                if fault is not None:
                    corrupt_next = _apply_fault(fault, out) or corrupt_next
            now = time.monotonic()
            if now - last_beat >= HEARTBEAT_SECONDS:
                write_frame(out, (MSG_PROGRESS, worker_index, shard_id,
                                  done + 1))
                last_beat = now
    except BudgetExhausted as exc:
        write_frame(out, (MSG_EXHAUSTED, worker_index, shard_id,
                          exc.exhaustion.to_dict()))
        return corrupt_next
    except BrokenPipeError:
        raise
    except Exception:
        write_frame(out, (MSG_ERROR, worker_index, shard_id,
                          traceback.format_exc()))
        return corrupt_next
    busy_us = int((time.monotonic() - started) * 1_000_000)
    write_frame(
        out, (MSG_RESULT, worker_index, shard_id, expansions, busy_us),
        corrupt=corrupt_next,
    )
    return False
