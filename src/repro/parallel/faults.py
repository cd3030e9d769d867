"""Deliberate failure injection for the parallel exploration supervisor.

Every recovery path in :mod:`repro.parallel.supervisor` is exercised on
purpose through a :class:`FaultPlan` rather than by hoping a real crash
shows up in CI.  A plan is a comma-separated list of faults::

    kill:1@40,stall:*@200,corrupt:0@10

Each fault is ``kind:worker@states`` (``kind@states`` is shorthand for
``kind:*@states``):

``kind``
    ``kill``    -- the worker SIGKILLs itself mid-shard (hard crash;
    the supervisor sees EOF on the pipe and requeues the shard);
    ``exit``    -- the worker exits cleanly without a result (same
    recovery, different detection path);
    ``stall``   -- the worker stops sending heartbeats and sleeps
    (recovered by the heartbeat timeout / shard deadline);
    ``corrupt`` -- the worker flips bytes in its next result frame
    *after* the checksum is computed, so the supervisor's CRC check
    rejects it (recovered like a crash).

``worker``
    A worker index, or ``*`` for any worker.

``states``
    Trigger threshold: the fault fires once the worker has expanded at
    least this many states cumulatively (across shards).  Each fault
    fires at most once.

Plans are parsed in the supervisor but *triggered* in the worker: the
plan is part of the supervisor state inherited through ``os.fork``, so
each child's fired-flags are private copies and a respawned worker
re-arms nothing (fired faults stay fired in the supervisor's copy only
for workers that never forked again -- respawns receive the current
supervisor-side plan, where delivered faults have been marked fired by
:meth:`FaultPlan.mark_fired` before the fork).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

KINDS = ("kill", "exit", "stall", "corrupt")

#: How long a ``stall`` fault sleeps, in seconds.  Far longer than any
#: heartbeat timeout used in tests, but bounded so an un-reaped worker
#: cannot outlive the test session.
STALL_SECONDS = 600.0


class FaultPlanError(ValueError):
    """A fault-plan spec string does not parse."""


@dataclass
class Fault:
    """One injected failure (see module docstring for semantics)."""

    kind: str
    worker: Optional[int]  # None == any worker ("*")
    after_states: int
    fired: bool = False

    def matches(self, worker_index: int, states_expanded: int) -> bool:
        if self.fired:
            return False
        if self.worker is not None and self.worker != worker_index:
            return False
        return states_expanded >= self.after_states

    def describe(self) -> str:
        who = "*" if self.worker is None else str(self.worker)
        return f"{self.kind}:{who}@{self.after_states}"


@dataclass
class FaultPlan:
    """An ordered collection of faults shared by supervisor and workers."""

    faults: List[Fault] = field(default_factory=list)

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse ``"kill:1@40,stall:*@10"``-style specs (``None``/"" -> empty)."""
        faults: List[Fault] = []
        for part in (spec or "").split(","):
            part = part.strip()
            if not part:
                continue
            try:
                if ":" in part:
                    kind, rest = part.split(":", 1)
                    who, threshold = rest.split("@", 1)
                else:
                    # kind@states shorthand == kind:*@states
                    kind, threshold = part.split("@", 1)
                    who = "*"
            except ValueError:
                raise FaultPlanError(
                    f"bad fault {part!r}: expected kind:worker@states"
                ) from None
            kind = kind.strip().lower()
            if kind not in KINDS:
                raise FaultPlanError(
                    f"unknown fault kind {kind!r} (expected one of {', '.join(KINDS)})"
                )
            who = who.strip()
            worker: Optional[int]
            if who == "*":
                worker = None
            else:
                try:
                    worker = int(who)
                except ValueError:
                    raise FaultPlanError(
                        f"bad worker {who!r} in fault {part!r}"
                    ) from None
                if worker < 0:
                    raise FaultPlanError(f"negative worker in fault {part!r}")
            try:
                after = int(threshold.strip())
            except ValueError:
                raise FaultPlanError(
                    f"bad state threshold {threshold!r} in fault {part!r}"
                ) from None
            if after < 0:
                raise FaultPlanError(f"negative threshold in fault {part!r}")
            faults.append(Fault(kind=kind, worker=worker, after_states=after))
        return cls(faults=faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def next_for(self, worker_index: int, states_expanded: int) -> Optional[Fault]:
        """The first unfired fault this worker has reached, if any.

        Called inside the worker after each state expansion; the caller
        marks the returned fault fired (in its private forked copy) and
        acts on it.
        """
        for fault in self.faults:
            if fault.matches(worker_index, states_expanded):
                return fault
        return None

    def mark_fired(self, worker_index: int) -> None:
        """Supervisor-side bookkeeping when worker ``worker_index`` dies.

        A crash caused by an injected fault must not re-arm in the
        respawned replacement (which forks from the supervisor and would
        otherwise inherit a fresh unfired copy, killing workers forever).
        The supervisor cannot see *which* fault fired in the child, so
        it retires exactly **one** fault per death: the first unfired
        fault addressed to that worker (or any wildcard), mirroring the
        worker-side rule that each shard death fires a single fault.
        With several faults aimed at the same index, each death retires
        the next one in plan order.
        """
        for fault in self.faults:
            if not fault.fired and (fault.worker is None or fault.worker == worker_index):
                fault.fired = True
                return

    def describe(self) -> str:
        return ",".join(f.describe() for f in self.faults)
