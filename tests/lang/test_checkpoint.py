"""Checkpoint / resume tests: bit-identical results, fingerprint guard.

The acceptance criterion for the robustness PR: interrupt an exploration
with a budget, resume from the checkpoint, and obtain a FrozenLTS whose
``.aut`` dump is byte-for-byte identical to an uninterrupted run -- on
at least two corpus objects.
"""

import pickle

import pytest

from repro.core.aut import dumps_aut
from repro.lang import (
    ClientConfig,
    ExpansionContext,
    StreamingExplorer,
    explore,
)
from repro.lang.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    CheckpointMismatch,
    CheckpointSink,
    fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.lang.values import Ref
from repro.objects import get
from repro.util.budget import BudgetExhausted, RunBudget


def _bench_config(key, threads=2, ops=2):
    bench = get(key)
    program = bench.build(threads)
    config = ClientConfig(
        num_threads=threads,
        ops_per_thread=ops,
        workload=bench.default_workload(),
    )
    return program, config


def _interrupt_then_resume(key, tmp_path, max_states=400):
    """Explore with a state cap, checkpoint on exhaustion, then resume."""
    program, config = _bench_config(key)
    full = explore(program, config)

    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=max_states,
    )
    path = str(tmp_path / f"{key}.ckpt")
    sink = CheckpointSink(path, interval_seconds=0.0)
    with pytest.raises(BudgetExhausted):
        explore(program, capped, checkpoint=sink)
    assert sink.saves > 0

    resumed = explore(program, config, resume=load_checkpoint(path))
    return full, resumed


@pytest.mark.parametrize("key", ["treiber", "ms_queue"])
def test_resume_is_bit_identical(key, tmp_path):
    full, resumed = _interrupt_then_resume(key, tmp_path)
    assert dumps_aut(full) == dumps_aut(resumed)


def test_resume_after_deadline_exhaustion(tmp_path):
    program, config = _bench_config("treiber")
    full = explore(program, config)
    path = str(tmp_path / "deadline.ckpt")
    with pytest.raises(BudgetExhausted) as exc:
        explore(
            program, config,
            budget=RunBudget(deadline_seconds=0.0),
            checkpoint=CheckpointSink(path, interval_seconds=0.0),
        )
    assert exc.value.reason == "deadline"
    resumed = explore(program, config, resume=load_checkpoint(path))
    assert dumps_aut(full) == dumps_aut(resumed)


def test_fingerprint_excludes_max_states():
    program, config = _bench_config("treiber")
    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=123,
    )
    assert fingerprint(program, config) == fingerprint(program, capped)


def test_fingerprint_mismatch_rejected(tmp_path):
    program, config = _bench_config("treiber")
    path = str(tmp_path / "wrong.ckpt")
    sink = CheckpointSink(path, interval_seconds=0.0)
    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=200,
    )
    with pytest.raises(BudgetExhausted):
        explore(program, capped, checkpoint=sink)

    other_program, other_config = _bench_config("ms_queue")
    with pytest.raises(CheckpointMismatch):
        explore(other_program, other_config, resume=load_checkpoint(path))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"not a pickle at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "schema.ckpt"
    cp = Checkpoint(fingerprint={}, builder=None, frontier=[])
    with open(path, "wb") as handle:
        pickle.dump({"schema": "repro.checkpoint/v0", "checkpoint": cp}, handle)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(str(path))
    assert CHECKPOINT_SCHEMA in str(exc.value)


def test_save_is_atomic(tmp_path):
    # No temporary droppings left next to the checkpoint after a save.
    path = tmp_path / "atomic.ckpt"
    cp = Checkpoint(fingerprint={"k": 1}, builder=None, frontier=[])
    save_checkpoint(str(path), cp)
    assert [p.name for p in tmp_path.iterdir()] == ["atomic.ckpt"]
    assert load_checkpoint(str(path)).fingerprint == {"k": 1}


# ----------------------------------------------------------------------
# streaming <-> classic checkpoint interop (the on-the-fly refactor must
# not fork the checkpoint format: a run interrupted mid-stream resumes
# bit-identically from/into the classic explorer, both directions)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("key", ["treiber", "ms_queue"])
def test_streaming_snapshot_resumes_in_classic_explorer(key, tmp_path):
    # Interrupt a StreamingExplorer mid-stream via an explicit snapshot,
    # then hand the saved checkpoint to the classic explore() wrapper.
    program, config = _bench_config(key)
    full = explore(program, config)

    explorer = StreamingExplorer(ExpansionContext(program, config))
    for _ in range(50):
        assert explorer.expand_next() is not None
    path = str(tmp_path / f"{key}.stream.ckpt")
    save_checkpoint(path, explorer.snapshot())

    resumed = explore(program, config, resume=load_checkpoint(path))
    assert dumps_aut(full) == dumps_aut(resumed)


@pytest.mark.parametrize("key", ["treiber", "ms_queue"])
def test_classic_checkpoint_resumes_in_streaming_explorer(key, tmp_path):
    # The reverse direction: a checkpoint written by a classic capped
    # run is picked up by a StreamingExplorer, which drains the rest.
    program, config = _bench_config(key)
    full = explore(program, config)

    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=400,
    )
    path = str(tmp_path / f"{key}.classic.ckpt")
    sink = CheckpointSink(path, interval_seconds=0.0)
    with pytest.raises(BudgetExhausted):
        explore(program, capped, checkpoint=sink)
    assert sink.saves > 0

    explorer = StreamingExplorer(
        ExpansionContext(program, config), resume=load_checkpoint(path)
    )
    explorer.drain()
    assert dumps_aut(full) == dumps_aut(explorer.freeze())


def test_streaming_exhaustion_checkpoint_resumes_both_ways(tmp_path):
    # A streaming run interrupted by its own state cap must leave a
    # checkpoint that either explorer can finish from.
    program, config = _bench_config("treiber")
    full = explore(program, config)
    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=400,
    )
    path = str(tmp_path / "stream-exhausted.ckpt")
    explorer = StreamingExplorer(
        ExpansionContext(program, capped),
        checkpoint=CheckpointSink(path, interval_seconds=0.0),
    )
    with pytest.raises(BudgetExhausted):
        explorer.drain()

    classic = explore(program, config, resume=load_checkpoint(path))
    streaming = StreamingExplorer(
        ExpansionContext(program, config), resume=load_checkpoint(path)
    )
    streaming.drain()
    assert dumps_aut(full) == dumps_aut(classic)
    assert dumps_aut(full) == dumps_aut(streaming.freeze())


def test_ref_pickle_round_trip():
    # The tuple-subclass default would rebuild Ref(("ref", 3)); the
    # checkpoint format relies on references surviving pickling intact.
    ref = Ref(3)
    clone = pickle.loads(pickle.dumps(ref))
    assert clone == ref
    assert type(clone) is Ref
    assert clone.index == 3


def test_checkpoint_sink_throttles(tmp_path):
    sink = CheckpointSink(str(tmp_path / "t.ckpt"), interval_seconds=3600.0)
    cp = Checkpoint(fingerprint={}, builder=None, frontier=[])
    assert sink.maybe_save(cp) is True   # first call always saves
    assert sink.maybe_save(cp) is False  # within the interval
    assert sink.saves == 1


# ----------------------------------------------------------------------
# torn writes and opportunistic (quarantining) loads
# ----------------------------------------------------------------------

def _real_checkpoint_bytes(tmp_path):
    """A genuine on-disk checkpoint, for truncation experiments."""
    program, config = _bench_config("treiber")
    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=200,
    )
    path = tmp_path / "whole.ckpt"
    with pytest.raises(BudgetExhausted):
        explore(program, capped,
                checkpoint=CheckpointSink(str(path), interval_seconds=0.0))
    return path.read_bytes()


@pytest.mark.parametrize("keep", [1, 17, 0.5])
def test_torn_checkpoint_raises_checkpoint_error(keep, tmp_path):
    # Truncate a real checkpoint at several points (1 byte, a prefix,
    # half the file): every torn image must surface as CheckpointError,
    # never a raw pickle exception.
    data = _real_checkpoint_bytes(tmp_path)
    cut = keep if isinstance(keep, int) else int(len(data) * keep)
    torn = tmp_path / "torn.ckpt"
    torn.write_bytes(data[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(torn))


def test_quarantine_load_returns_none_for_missing_file(tmp_path):
    from repro.lang.checkpoint import load_checkpoint_or_quarantine
    assert load_checkpoint_or_quarantine(str(tmp_path / "absent.ckpt")) is None
    assert list(tmp_path.iterdir()) == []  # nothing quarantined


def test_quarantine_load_moves_torn_file_aside(tmp_path):
    from repro.lang.checkpoint import load_checkpoint_or_quarantine
    data = _real_checkpoint_bytes(tmp_path)
    torn = tmp_path / "torn.ckpt"
    torn.write_bytes(data[:len(data) // 2])
    assert load_checkpoint_or_quarantine(str(torn)) is None
    assert not torn.exists()
    quarantined = tmp_path / "torn.ckpt.corrupt"
    assert quarantined.exists()
    # The evidence is preserved byte-for-byte for debugging.
    assert quarantined.read_bytes() == data[:len(data) // 2]


def test_quarantine_load_passes_good_checkpoints_through(tmp_path):
    from repro.lang.checkpoint import load_checkpoint_or_quarantine
    program, config = _bench_config("treiber")
    full = explore(program, config)
    capped = ClientConfig(
        num_threads=config.num_threads,
        ops_per_thread=config.ops_per_thread,
        workload=config.workload,
        max_states=200,
    )
    path = tmp_path / "good.ckpt"
    with pytest.raises(BudgetExhausted):
        explore(program, capped,
                checkpoint=CheckpointSink(str(path), interval_seconds=0.0))
    checkpoint = load_checkpoint_or_quarantine(str(path))
    assert checkpoint is not None
    resumed = explore(program, config, resume=checkpoint)
    assert dumps_aut(full) == dumps_aut(resumed)
