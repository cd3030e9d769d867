"""Checkpoint / resume for interrupted most-general-client exploration.

A :class:`Checkpoint` captures the DFS exploration state at a *safe
point* -- the top of the exploration loop, before a frontier key is
popped -- as the interned state table (the whole :class:`LTSBuilder`)
plus the frontier as a list of state ids in stack order.  Resuming from
a checkpoint replays the remaining work in the exact interning order the
uninterrupted run would have used, so the frozen result (and therefore a
``.aut`` dump) is bit-identical to a run that was never interrupted.

Checkpoints are guarded by a *fingerprint* of the program and the
exploration configuration (everything except the state cap, so a run
killed by ``max_states`` may be resumed under a larger cap).  Loading a
checkpoint whose fingerprint does not match the requested exploration
raises :class:`CheckpointMismatch` instead of silently producing a
system for the wrong object.

Serialization is :mod:`pickle` (the state keys are plain tuples of
interned values), written atomically -- to a temporary file in the same
directory, then ``os.replace`` -- so an interrupt during a save can
never leave a truncated checkpoint behind.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import InputError
from ..core.lts import LTSBuilder

#: Bumped whenever the on-disk layout changes.
CHECKPOINT_SCHEMA = "repro.checkpoint/v3"


class CheckpointError(InputError):
    """A checkpoint file is unreadable or has the wrong schema."""


class CheckpointMismatch(CheckpointError):
    """A checkpoint's fingerprint disagrees with the requested run."""


def fingerprint(program: Any, config: Any) -> Dict[str, Any]:
    """Identify an exploration up to its resource caps.

    ``max_states`` is deliberately excluded: resuming an exhausted run
    under a larger cap is the whole point of checkpointing.
    """
    return {
        "program": program.name,
        "methods": tuple(m.name for m in program.methods),
        "num_threads": config.num_threads,
        "budgets": config.budgets(),
        "workload": tuple((m, tuple(a)) for m, a in config.workload),
        "canonicalize_heap": config.canonicalize_heap,
        "fuse_local_steps": config.fuse_local_steps,
    }


def spec_fingerprint(
    spec: Any, num_threads: int, ops_per_thread: Any, workload: Any
) -> Dict[str, Any]:
    """Identify a specification-LTS generation (:func:`repro.lang.spec_lts`).

    Mirrors :func:`fingerprint`; ``max_states`` is excluded for the same
    reason.  The ``kind`` marker keeps a spec checkpoint from ever
    validating against an implementation exploration of the same name.
    """
    if isinstance(ops_per_thread, int):
        budgets = tuple(ops_per_thread for _ in range(num_threads))
    else:
        budgets = tuple(ops_per_thread)
    return {
        "kind": "spec",
        "spec": spec.name,
        "methods": tuple(sorted(spec.methods)),
        "num_threads": num_threads,
        "budgets": budgets,
        "workload": tuple((m, tuple(a)) for m, a in workload),
    }


@dataclass
class Checkpoint:
    """Exploration state at a safe point (see module docstring)."""

    fingerprint: Dict[str, Any]
    builder: LTSBuilder
    #: Frontier as interned state ids, bottom of the DFS stack first.
    frontier: List[int] = field(default_factory=list)
    #: Completed-but-not-yet-replayed state expansions salvaged by a
    #: parallel run (``{state_key: [(label, dst_key, annotation), ...]}``).
    #: Serial resume ignores them (and simply recomputes those states);
    #: a parallel resume reuses them so no finished shard work is lost.
    #: ``None`` on checkpoints written by serial exploration -- and on
    #: checkpoints unpickled from files that predate this field, which
    #: is why readers go through :meth:`salvaged_expansions`.
    expansions: Optional[Dict[Any, List[Any]]] = None

    def frontier_keys(self) -> List[Any]:
        keys = self.builder.state_keys
        return [keys[sid] for sid in self.frontier]

    def salvaged_expansions(self) -> Dict[Any, List[Any]]:
        """The carried parallel expansions (``{}`` when absent).

        Uses ``getattr`` because checkpoints pickled before the field
        existed restore without an ``expansions`` attribute.
        """
        return getattr(self, "expansions", None) or {}

    def validate(self, expected_fingerprint: Dict[str, Any]) -> None:
        if self.fingerprint != expected_fingerprint:
            raise CheckpointMismatch(
                "checkpoint was produced by a different program/configuration: "
                f"expected {expected_fingerprint!r}, found {self.fingerprint!r}"
            )


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Atomically write ``checkpoint`` to ``path``."""
    import pickle  # only runs that save or load a checkpoint pay for it

    payload = {"schema": CHECKPOINT_SCHEMA, "checkpoint": checkpoint}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Any decode failure -- a truncated pickle from a torn write, a
    pickle of the wrong shape, bytes that are not a pickle at all --
    surfaces as :class:`CheckpointError`, never as a raw
    ``UnpicklingError``/``EOFError`` escaping from ``pickle``
    internals: torn on-disk state is an expected failure mode, not a
    crash.
    """
    import pickle

    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except OSError:
        raise
    except Exception as exc:
        # pickle raises a zoo of exception types on truncated/garbled
        # input (UnpicklingError, EOFError, AttributeError, ValueError,
        # UnicodeDecodeError, ...); collapse them all into the
        # structured error.
        raise CheckpointError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "checkpoint" not in payload:
        raise CheckpointError(f"{path!r} is not a repro checkpoint")
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{path!r} has schema {payload.get('schema')!r}, "
            f"expected {CHECKPOINT_SCHEMA!r}"
        )
    checkpoint = payload["checkpoint"]
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(f"{path!r} does not contain a Checkpoint")
    return checkpoint


def load_checkpoint_or_quarantine(path: str) -> Optional[Checkpoint]:
    """Best-effort load for opportunistic resume (the service daemon).

    Returns ``None`` when ``path`` does not exist.  When the file exists
    but is corrupt (torn write, wrong schema, not a pickle) it is moved
    aside to ``path + ".corrupt"`` -- quarantined, so the next save is
    not racing a poisoned file and the evidence survives for debugging
    -- and ``None`` is returned: a lost checkpoint costs recomputation,
    never a crash or a wrong resume.
    """
    try:
        return load_checkpoint(path)
    except FileNotFoundError:
        return None
    except (CheckpointError, OSError):
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            pass
        return None


class CheckpointSink:
    """Periodic checkpoint writer driven from the exploration loop.

    The loop calls :meth:`maybe_save` at every safe point; a write
    happens at most every ``interval_seconds`` (and always on the first
    call with ``save_first=True``, which the exhaustion path uses so an
    exhausted run always leaves a checkpoint behind).
    """

    def __init__(self, path: str, interval_seconds: float = 5.0):
        self.path = path
        self.interval_seconds = interval_seconds
        self.saves = 0
        self._last: Optional[float] = None

    def due(self) -> bool:
        if self._last is None:
            return True
        return time.monotonic() - self._last >= self.interval_seconds

    def save(self, checkpoint: Checkpoint) -> None:
        save_checkpoint(self.path, checkpoint)
        self.saves += 1
        self._last = time.monotonic()

    def maybe_save(self, checkpoint: Checkpoint) -> bool:
        if not self.due():
            return False
        self.save(checkpoint)
        return True
