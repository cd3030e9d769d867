"""Supervisor side of fault-tolerant sharded exploration.

The parallel layer splits exploration into two halves with very
different costs:

* **expansion** -- computing the successor edges of a state by running
  the interpreter.  Expensive, embarrassingly parallel, and order-free:
  the edges of a state do not depend on when (or where) any other state
  was expanded.  This half is shipped to worker processes.
* **interning** -- assigning dense state ids in discovery order.
  Cheap, but *order-defining*: the ``.aut`` output is a function of the
  interning order.  This half never leaves the supervisor.

The supervisor explores in **waves**: the current frontier is
partitioned by state-fingerprint ownership (``hash(key) % workers``),
chunked into shards, and farmed out; returned ``(key, edges)`` pairs
are accumulated in an expansion table.  When the table covers the
reachable closure, the supervisor *replays* a serial DFS from the
initial state against the table -- pop, apply the recorded edges in
order, push unseen destinations -- which reproduces the serial
exploration's interning order exactly.  The resulting frozen system
(and therefore its ``.aut`` dump) is byte-identical to a serial run, no
matter how shards were scheduled, retried or reassigned.

Failure model (see ``docs/ROBUSTNESS.md``):

crash
    EOF / broken pipe on a worker's result pipe (SIGKILL, OOM-kill,
    ``os._exit``).  The worker's in-flight shard is requeued.
hang
    No frame (result, progress heartbeat, hello) from a busy worker
    within ``heartbeat_timeout``.  The worker is killed and its shard
    requeued.
corruption
    A result frame failing the CRC check (:class:`ProtocolError`).
    Treated as a crash: kill, respawn, requeue.

Requeues use capped exponential backoff; a shard failing more than
``max_shard_retries`` times triggers *degradation* -- the worker target
drops by one, and at zero the supervisor finishes the remaining
expansions in-process (plain serial code under the global budget).  On
budget exhaustion or SIGINT every completed expansion is salvaged into
a resumable checkpoint: the serial-prefix replay stops at the first
state with no recorded expansion (exactly a serial safe point, so a
*serial* ``--resume`` works unchanged) and the not-yet-replayed
expansions ride along in ``Checkpoint.expansions`` so a *parallel*
resume loses no finished work either.
"""

from __future__ import annotations

import heapq
import os
import selectors
import signal
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.lts import LTSBuilder, _same_content
from ..lang.checkpoint import Checkpoint, CheckpointSink, fingerprint
# ``maybe_parallel_explore`` lives next to ``explore`` so that serial runs
# never import this package; ``repro.parallel`` re-exports it from here.
from ..lang.client import ExpansionContext, StateExplosion, maybe_parallel_explore
from ..util.budget import (
    REASON_DEADLINE,
    BudgetExhausted,
    RunBudget,
    child_allowance,
)
from ..util.metrics import Stats
from ..util.retry import BackoffPolicy
from .faults import FaultPlan
from .protocol import (
    MSG_ERROR,
    MSG_EXHAUSTED,
    MSG_HELLO,
    MSG_PROGRESS,
    MSG_RESULT,
    MSG_SHARD,
    FrameDecoder,
    ProtocolError,
    write_frame,
)
from .worker import HEARTBEAT_SECONDS, worker_main

#: Upper bound on one ``select`` wait, so SIGINT tokens, backoff expiry
#: and hang deadlines are observed promptly.
_POLL_SECONDS = 0.25


@dataclass
class ParallelConfig:
    """Tuning knobs of the sharded exploration supervisor."""

    #: Worker process target.  ``1`` still exercises the full protocol
    #: (one child); the CLI maps ``--workers 0`` to plain serial explore
    #: before a supervisor is ever built.
    workers: int = 2
    #: Frontier keys per shard message.
    shard_states: int = 128
    #: Seconds without any frame from a busy worker before it is
    #: declared hung, killed, and its shard requeued.  It must exceed
    #: the workers' heartbeat interval
    #: (:data:`repro.parallel.worker.HEARTBEAT_SECONDS`; the supervisor
    #: refuses a smaller value).  Workers heartbeat *between* state
    #: expansions, so it must also exceed the slowest single
    #: ``expand()`` call -- a state that legitimately takes
    #: longer is indistinguishable from a stall by silence alone and
    #: would be killed (and requeued, and killed again) on every retry
    #: until the pool degrades to serial.  When ``shard_deadline`` is
    #: set the effective hang deadline stretches to cover it (see
    #: :meth:`Supervisor._check_hangs`), since the child then reports
    #: exhaustion on its own.
    heartbeat_timeout: float = 10.0
    #: Optional per-shard wall-clock cap; combined with the remaining
    #: global deadline into the :class:`ChildAllowance` shipped with the
    #: shard (the child exhausts cleanly instead of being shot).
    shard_deadline: Optional[float] = None
    #: Requeues a single shard may consume before the supervisor
    #: degrades (drops the worker target by one).
    max_shard_retries: int = 3
    #: Exponential backoff for requeued shards: the n-th retry waits
    #: ``min(backoff_base * 2**(n-1), backoff_cap)`` seconds (a
    #: :class:`repro.util.retry.BackoffPolicy` without jitter -- shard
    #: requeues are serialized through one supervisor, so there is no
    #: herd to de-synchronize and determinism matters more).
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Injected failures (``kill:1@40,stall:*@10`` ...); see
    #: :mod:`repro.parallel.faults`.
    fault_plan: Optional[FaultPlan] = None

    def backoff_policy(self) -> BackoffPolicy:
        """The requeue delay schedule as a shared policy object."""
        return BackoffPolicy(base=self.backoff_base, cap=self.backoff_cap)


@dataclass
class _Worker:
    """A forked worker and the parent's ends of its two pipes."""

    index: int
    pid: int
    cmd: Any                     # buffered writer over the command pipe
    res_fd: int
    decoder: FrameDecoder = field(
        default_factory=lambda: FrameDecoder(trusted=True)
    )
    shard: Optional[Tuple[int, List[Any]]] = None
    last_frame: float = 0.0

    def close(self) -> None:
        """Kill the child, close both pipe ends and reap the process."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.cmd.close()
        except Exception:
            pass
        try:
            os.close(self.res_fd)
        except Exception:
            pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


class Supervisor:
    """One parallel exploration run (see module docstring)."""

    def __init__(
        self,
        program: Any,
        config: Any,
        parallel: ParallelConfig,
        budget: Optional[RunBudget] = None,
        stats: Optional[Stats] = None,
    ) -> None:
        if parallel.workers < 1:
            raise ValueError("ParallelConfig.workers must be >= 1")
        if parallel.heartbeat_timeout <= HEARTBEAT_SECONDS:
            # A hang deadline at (or below) the workers' heartbeat
            # interval would make every busy worker look stalled; refuse
            # the config instead of silently kill-looping (see
            # docs/ROBUSTNESS.md).
            raise ValueError(
                "ParallelConfig.heartbeat_timeout "
                f"({parallel.heartbeat_timeout}) must be larger than the "
                f"worker heartbeat interval ({HEARTBEAT_SECONDS}s)"
            )
        self.backoff_policy = parallel.backoff_policy()
        self.program = program
        self.config = config
        self.parallel = parallel
        self.budget = budget
        self.stats = stats
        self.context = ExpansionContext(program, config)
        self.init_key = self.context.initial_key()
        self.run_id: Optional[Dict[str, Any]] = None

        # expansion table and discovery bookkeeping
        self.expansions: Dict[Any, List[Any]] = {}
        # key (==-equal class) -> the exact key object whose expansion
        # is stored; lets the replay detect bool/int-aliased entries
        # (see repro.core.lts._same_content) without changing the
        # table layout.
        self.expansion_reps: Dict[Any, Any] = {}
        self.known: set = set()
        self.trans_count = 0

        # scheduling state
        self.target = parallel.workers
        self.workers: Dict[int, _Worker] = {}
        self.selector = selectors.DefaultSelector()
        self.pending: deque = deque()           # (shard_id, keys)
        self.backoff: List[Tuple[float, int, List[Any]]] = []  # heap
        self.retries: Dict[int, int] = {}
        self.next_shard_id = 0
        self.next_worker_index = 0

    # ------------------------------------------------------------------
    # counters (None-safe)
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.stats is not None and amount:
            self.stats.count(name, amount)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> Optional[_Worker]:
        index = self.next_worker_index
        try:
            cmd_r, cmd_w = os.pipe()
            res_r, res_w = os.pipe()
            pid = os.fork()
        except OSError:
            # Cannot create processes/pipes: degrade all the way down and
            # let the in-process fallback finish the run.
            self.target = 0
            return None
        if pid == 0:  # child
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(cmd_w)
                os.close(res_r)
                # Close the parent-side pipe ends of every sibling
                # inherited through fork, or their EOFs would be delayed
                # until this child exits too.
                for sibling in self.workers.values():
                    with suppress(Exception):
                        sibling.cmd.close()
                    with suppress(OSError):
                        os.close(sibling.res_fd)
                worker_main(
                    index, self.context, cmd_r, res_w,
                    fault_plan=self.parallel.fault_plan,
                )
            finally:
                os._exit(1)
        os.close(cmd_r)
        os.close(res_w)
        os.set_blocking(res_r, False)
        worker = _Worker(
            index=index, pid=pid, cmd=os.fdopen(cmd_w, "wb"),
            res_fd=res_r, last_frame=time.monotonic(),
        )
        self.next_worker_index += 1
        self.workers[index] = worker
        self.selector.register(res_r, selectors.EVENT_READ, worker)
        return worker

    def _reap(self, worker: _Worker) -> None:
        """Tear one worker down (kill, unregister, close, wait)."""
        self.workers.pop(worker.index, None)
        try:
            self.selector.unregister(worker.res_fd)
        except (KeyError, ValueError, OSError):
            pass
        worker.close()

    _FAIL_COUNTERS = {
        "crash": "worker_crashes",
        "hang": "worker_hangs",
        "corrupt": "corrupt_frames",
    }

    def _fail_worker(self, worker: _Worker, kind: str) -> None:
        """Recover from a crashed / hung / corrupting worker."""
        self._count(self._FAIL_COUNTERS[kind])
        self._reap(worker)
        if self.parallel.fault_plan is not None:
            # A fired injected fault must not re-arm in the respawned
            # replacement (forked from this, the supervisor's, copy).
            self.parallel.fault_plan.mark_fired(worker.index)
        if worker.shard is not None:
            self._requeue(worker.shard)
            worker.shard = None

    def _shutdown(self) -> None:
        for worker in list(self.workers.values()):
            self._reap(worker)

    # ------------------------------------------------------------------
    # shard scheduling
    # ------------------------------------------------------------------
    def _make_shards(self, frontier: List[Any]) -> None:
        """Partition a wave by key ownership and queue the shards."""
        buckets: List[List[Any]] = [[] for _ in range(max(1, self.target))]
        for key in frontier:
            buckets[hash(key) % len(buckets)].append(key)
        size = max(1, self.parallel.shard_states)
        for bucket in buckets:
            for lo in range(0, len(bucket), size):
                shard = (self.next_shard_id, bucket[lo:lo + size])
                self.next_shard_id += 1
                self.pending.append(shard)
                self._count("shards")

    def _requeue(self, shard: Tuple[int, List[Any]]) -> None:
        shard_id, _keys = shard
        attempts = self.retries.get(shard_id, 0) + 1
        self.retries[shard_id] = attempts
        self._count("requeues")
        if attempts > self.parallel.max_shard_retries:
            # This shard keeps killing whoever runs it: shrink the pool.
            self.target = max(0, self.target - 1)
            self.retries[shard_id] = 0
            self._count("degraded_workers")
        delay = self.backoff_policy.delay(attempts)
        heapq.heappush(self.backoff, (time.monotonic() + delay, *shard))

    def _promote_backoff(self) -> None:
        now = time.monotonic()
        while self.backoff and self.backoff[0][0] <= now:
            _ready, shard_id, keys = heapq.heappop(self.backoff)
            self.pending.append((shard_id, keys))

    def _dispatch(self) -> None:
        """Hand pending shards to idle workers, provisioning up to target."""
        while self.pending:
            worker = next(
                (w for w in self.workers.values() if w.shard is None), None
            )
            if worker is None:
                if len(self.workers) >= self.target:
                    return
                worker = self._spawn()
                if worker is None:
                    return
            shard = self.pending.popleft()
            allowance = child_allowance(
                self.budget, self.parallel.shard_deadline
            )
            try:
                write_frame(
                    worker.cmd, (MSG_SHARD, shard[0], shard[1], allowance)
                )
            except (BrokenPipeError, OSError):
                self.pending.appendleft(shard)
                self._fail_worker(worker, "crash")
                continue
            worker.shard = shard
            worker.last_frame = time.monotonic()

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def _record_result(
        self, worker: _Worker, shard_id: int, pairs: List[Tuple[Any, List[Any]]]
    ) -> None:
        if worker.shard is None or worker.shard[0] != shard_id:
            # Stale frame from a reassigned shard (e.g. a worker that
            # was declared hung but finished anyway): dropping it here
            # is what makes reassignment exactly-once -- only the
            # current assignee's result is recorded.
            self._count("stale_results")
            return
        for key, edges in pairs:
            if key not in self.expansions:
                self.expansions[key] = edges
                self.expansion_reps[key] = key
                self.trans_count += len(edges)
        worker.shard = None

    def _handle_frame(self, worker: _Worker, frame: Tuple[Any, ...]) -> None:
        worker.last_frame = time.monotonic()
        kind = frame[0]
        if kind in (MSG_HELLO, MSG_PROGRESS):
            return
        if kind == MSG_RESULT:
            _k, _idx, shard_id, pairs, busy_us = frame
            self._record_result(worker, shard_id, pairs)
            self._count(f"worker{worker.index}_busy_us", busy_us)
            self._count("worker_busy_us", busy_us)
            return
        if kind == MSG_EXHAUSTED:
            # The shard outran its budget slice (per-shard deadline or
            # RSS).  Worker is healthy; the shard goes back with a retry
            # charged -- repeated exhaustion degrades towards serial,
            # where only the global budget applies.
            self._count("shard_exhaustions")
            if worker.shard is not None and worker.shard[0] == frame[2]:
                self._requeue(worker.shard)
                worker.shard = None
            return
        if kind == MSG_ERROR:
            self._count("shard_errors")
            if worker.shard is not None:
                self._requeue(worker.shard)
                worker.shard = None
            return

    def _poll(self, timeout: float) -> None:
        for key, _events in self.selector.select(timeout):
            worker: _Worker = key.data
            while True:  # drain until EAGAIN so big results land fast
                try:
                    data = os.read(worker.res_fd, 1 << 16)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    self._fail_worker(worker, "crash")
                    break
                if not data:
                    self._fail_worker(worker, "crash")
                    break
                try:
                    frames = worker.decoder.feed(data)
                except ProtocolError:
                    self._fail_worker(worker, "corrupt")
                    break
                for frame in frames:
                    self._handle_frame(worker, frame)

    def _check_hangs(self) -> None:
        # Heartbeats come between state expansions, so silence may mean
        # one slow state rather than a stall.  With a shard deadline the
        # child cuts itself off and reports exhaustion cleanly, so give
        # it that long -- plus one heartbeat of grace for the frame to
        # arrive -- before shooting it.
        deadline = self.parallel.heartbeat_timeout
        if self.parallel.shard_deadline is not None:
            deadline = max(
                deadline,
                self.parallel.shard_deadline + self.parallel.heartbeat_timeout,
            )
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if worker.shard is not None and now - worker.last_frame > deadline:
                self._fail_worker(worker, "hang")

    # ------------------------------------------------------------------
    # budget / caps
    # ------------------------------------------------------------------
    def _check_budget(self, backlog: int) -> None:
        budget = self.budget
        if budget is not None:
            budget.check(
                "explore",
                states=len(self.known),
                transitions=self.trans_count,
                frontier=backlog,
            )
            # RunBudget strides its clock probe for tight loops; this
            # loop ticks every _POLL_SECONDS, so probe the deadline
            # unconditionally for prompt salvage.
            remaining = budget.remaining_seconds()
            if remaining is not None and remaining < 0:
                budget.exhaust(
                    REASON_DEADLINE, "explore",
                    f"deadline={budget.deadline_seconds:.2f}s",
                    states=len(self.known),
                    transitions=self.trans_count,
                    frontier=backlog,
                )
        max_states = self.config.effective_max_states()
        if max_states is not None and len(self.known) > max_states:
            raise StateExplosion(
                f"{self.program.name}: more than {max_states} states",
                states=len(self.known),
                transitions=self.trans_count,
                frontier=backlog,
            )

    # ------------------------------------------------------------------
    # deterministic replay
    # ------------------------------------------------------------------
    def _replay(
        self, stop_on_missing: bool
    ) -> Tuple[LTSBuilder, List[int], set]:
        """Serial-DFS replay of the expansion table.

        Returns ``(builder, stack, consumed)``, ``stack`` as state ids;
        with ``stop_on_missing`` the replay halts at the first popped key
        without a recorded expansion (that key is pushed back, so
        ``stack`` is exactly a serial frontier at a safe point).
        Without it, a missing key is a bug -- the wave loop guarantees
        closure.
        """
        builder = LTSBuilder()
        builder.set_init(self.init_key)
        keys = builder.state_keys
        stack: List[int] = [builder.lts.init]
        consumed: set = set()
        expansions = self.expansions
        reps = self.expansion_reps
        while stack:
            sid = stack.pop()
            key = keys[sid]
            edges = expansions.get(key)
            if edges is None:
                if stop_on_missing:
                    stack.append(sid)
                    break
                raise AssertionError(
                    "expansion table does not cover the reachable closure"
                )
            rep = reps.get(key)
            if rep is not None and rep is not key \
                    and not _same_content(rep, key):
                # The table entry was recorded for a bool/int-aliased
                # twin of this key, whose edges may render (and, through
                # Lock's ``is not False``, behave) differently.
                # Re-expand with *this* key -- the replay discovers in
                # serial order, so this is the serial representative and
                # its rendering is the byte-identical one.
                edges = self.context.expand(key)
                expansions[key] = edges
                reps[key] = key
                self._count("alias_reexpansions")
            consumed.add(key)
            known = len(keys)
            builder.add_edges(sid, edges)
            stack.extend(range(known, len(keys)))
        return builder, stack, consumed

    def _salvage_checkpoint(self) -> Checkpoint:
        builder, stack, consumed = self._replay(stop_on_missing=True)
        leftover = {
            key: edges for key, edges in self.expansions.items()
            if key not in consumed
        }
        return Checkpoint(
            fingerprint=self.run_id,
            builder=builder,
            frontier=stack,
            expansions=leftover or None,
        )

    # ------------------------------------------------------------------
    # resume
    # ------------------------------------------------------------------
    def _load_resume(self, resume: Checkpoint) -> List[Any]:
        """Rebuild the expansion table from a checkpoint (serial or
        parallel) and return the initial frontier."""
        resume.validate(self.run_id)
        builder = resume.builder
        keys = builder.state_keys
        labels = builder.lts.action_labels
        frontier_ids = set(resume.frontier)
        # A serial checkpoint's builder records edges only for expanded
        # states, each expanded exactly once with its edges in insertion
        # order -- so grouping by source reconstructs expand() output.
        for src, aid, dst, ann in builder.lts.transitions_with_annotations():
            if src in frontier_ids:
                continue
            self.expansions.setdefault(keys[src], []).append(
                (labels[aid], keys[dst], ann)
            )
        for key, edges in resume.salvaged_expansions().items():
            if key not in self.expansions:
                self.expansions[key] = edges
        self.trans_count = sum(len(e) for e in self.expansions.values())
        for key in self.expansions:
            self.expansion_reps[key] = key
        # Frontier = every discovered-but-unexpanded key: the checkpoint
        # frontier plus destinations only reachable through salvaged
        # (never replayed) expansions.
        frontier: List[Any] = []
        seen = set(self.expansions)
        for key in resume.frontier_keys():
            if key not in seen:
                seen.add(key)
                frontier.append(key)
        for edges in list(self.expansions.values()):
            for _label, dst, _ann in edges:
                if dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        self.known = set(self.expansions) | set(frontier) | {self.init_key}
        return frontier

    # ------------------------------------------------------------------
    # in-process fallback
    # ------------------------------------------------------------------
    def _expand_serial(self, keys: List[Any]) -> None:
        for done, key in enumerate(keys):
            if key in self.expansions:
                continue
            self._check_budget(backlog=len(keys) - done)
            edges = self.context.expand(key)
            self.expansions[key] = edges
            self.expansion_reps[key] = key
            self.trans_count += len(edges)

    def _drain_serial(self) -> None:
        """Finish all queued shards in-process (fully degraded mode)."""
        # A still-busy worker's in-flight shard must be requeued before
        # the pool is torn down (_reap only dismantles the process), or
        # its keys would never be expanded and the final replay could
        # not cover the reachable closure.  Degrading to target == 0
        # while another worker is mid-shard is exactly the recovery
        # path where this matters.
        for worker in self.workers.values():
            if worker.shard is not None:
                self.pending.append(worker.shard)
                worker.shard = None
        self._shutdown()
        while self.backoff:
            _ready, shard_id, keys = heapq.heappop(self.backoff)
            self.pending.append((shard_id, keys))
        while self.pending:
            _shard_id, keys = self.pending.popleft()
            self._expand_serial(keys)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(
        self,
        checkpoint: Optional[CheckpointSink] = None,
        resume: Optional[Checkpoint] = None,
    ) -> Any:
        """Explore to closure and return the frozen LTS.

        Raises :class:`BudgetExhausted` (after salvaging a checkpoint
        into ``checkpoint``, when given) exactly like serial
        :func:`repro.lang.client.explore`.
        """
        if checkpoint is not None or resume is not None:
            self.run_id = fingerprint(self.program, self.config)
        if resume is not None:
            frontier = self._load_resume(resume)
        else:
            frontier = [self.init_key]
            self.known = {self.init_key}
        try:
            try:
                self._run_waves(frontier, checkpoint)
            except BudgetExhausted:
                if checkpoint is not None:
                    checkpoint.save(self._salvage_checkpoint())
                raise
        finally:
            self._shutdown()
        builder, _stack, _consumed = self._replay(stop_on_missing=False)
        return builder.lts.freeze()

    def _run_waves(
        self, frontier: List[Any], checkpoint: Optional[CheckpointSink]
    ) -> None:
        wave = list(frontier)
        while True:
            if wave:
                self._make_shards(wave)
            # drain the current wave
            while self.pending or self.backoff or any(
                w.shard is not None for w in self.workers.values()
            ):
                backlog = len(self.pending) + len(self.backoff) + sum(
                    1 for w in self.workers.values() if w.shard is not None
                )
                self._check_budget(backlog)
                if checkpoint is not None and checkpoint.due():
                    checkpoint.save(self._salvage_checkpoint())
                self._promote_backoff()
                if self.target == 0:
                    self._drain_serial()
                    continue
                self._dispatch()
                busy = any(
                    w.shard is not None for w in self.workers.values()
                )
                if busy:
                    timeout = _POLL_SECONDS
                    if self.backoff:
                        timeout = min(
                            timeout,
                            max(0.0, self.backoff[0][0] - time.monotonic()),
                        )
                    self._poll(timeout)
                    self._check_hangs()
                elif self.backoff:
                    time.sleep(
                        min(
                            _POLL_SECONDS,
                            max(0.0, self.backoff[0][0] - time.monotonic()),
                        )
                    )
            # wave complete: next frontier from this wave's expansions,
            # in deterministic (wave order x edge order) sequence
            next_wave: List[Any] = []
            for key in wave:
                for _label, dst, _ann in self.expansions.get(key, ()):
                    if dst not in self.known:
                        self.known.add(dst)
                        next_wave.append(dst)
            if not next_wave:
                missing = [k for k in wave if k not in self.expansions]
                if missing:
                    # Shards can complete without covering every key only
                    # through a logic error; expand directly rather than
                    # looping forever.
                    self._expand_serial(missing)
                    for key in missing:
                        for _label, dst, _ann in self.expansions[key]:
                            if dst not in self.known:
                                self.known.add(dst)
                                next_wave.append(dst)
                if not next_wave:
                    return
            wave = next_wave


def parallel_explore(
    program: Any,
    config: Any,
    parallel: ParallelConfig,
    stats: Optional[Stats] = None,
    budget: Optional[RunBudget] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
) -> Any:
    """Sharded :func:`repro.lang.client.explore` (same contract).

    The returned frozen system is byte-identical (as a ``.aut`` dump) to
    the serial function's result; on exhaustion the salvaged checkpoint
    is serial-compatible.  ``stats`` gains supervisor counters (shards,
    requeues, worker crashes/hangs, corrupt frames, degradations,
    per-worker busy time) under the ``explore`` stage.
    """
    supervisor = Supervisor(
        program, config, parallel, budget=budget, stats=stats
    )
    if stats is None:
        return supervisor.run(checkpoint=checkpoint, resume=resume)
    with stats.stage("explore"):
        lts = supervisor.run(checkpoint=checkpoint, resume=resume)
        stats.count("states", lts.num_states)
        stats.count("transitions", lts.num_transitions)
    return lts
