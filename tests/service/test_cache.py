"""Result cache: crash-safety, quarantine, LRU, restart persistence.

Every failure mode here is one the daemon must survive without human
intervention: torn index appends truncate back to the valid prefix,
corrupt entries quarantine and read as misses, and recency survives a
restart so eviction decisions stay sane.
"""

import os

import pytest

from repro.parallel.protocol import encode_frame
from repro.service.cache import ResultCache
from tests.helpers import ExecOnUnpickle


def _result(tag):
    return {"schema": "repro.service-result/v1", "verdict": "TRUE",
            "tag": tag}


def _key(n):
    return f"{n:064x}"  # sha256-shaped


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------

def test_put_get_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get(_key(1)) is None
    cache.put(_key(1), _result("a"))
    assert cache.get(_key(1)) == _result("a")
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["puts"] == 1
    assert cache.stats()["entries"] == 1


def test_put_overwrites(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("old"))
    cache.put(_key(1), _result("new"))
    assert cache.get(_key(1)) == _result("new")
    assert len(cache) == 1


def test_entries_survive_restart(tmp_path):
    ResultCache(str(tmp_path)).put(_key(1), _result("a"))
    reopened = ResultCache(str(tmp_path))
    assert reopened.get(_key(1)) == _result("a")


def test_atomic_writes_leave_no_droppings(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("a"))
    names = sorted(os.listdir(cache.entries_dir))
    assert names == [f"{_key(1)}.res"]


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------

def test_lru_eviction_removes_oldest_entry_and_file(tmp_path):
    cache = ResultCache(str(tmp_path), max_entries=2)
    for n in (1, 2, 3):
        cache.put(_key(n), _result(str(n)))
    assert len(cache) == 2
    assert _key(1) not in cache
    assert cache.stats()["evictions"] == 1
    assert not os.path.exists(os.path.join(
        cache.entries_dir, f"{_key(1)}.res"))
    assert cache.get(_key(3)) == _result("3")


def test_hits_refresh_recency_across_restarts(tmp_path):
    cache = ResultCache(str(tmp_path), max_entries=2)
    cache.put(_key(1), _result("1"))
    cache.put(_key(2), _result("2"))
    assert cache.get(_key(1)) is not None  # 1 is now the most recent

    # The touch record persisted: after a restart, inserting a third
    # entry evicts 2, not the recently-used 1.
    reopened = ResultCache(str(tmp_path), max_entries=2)
    reopened.put(_key(3), _result("3"))
    assert _key(1) in reopened
    assert _key(2) not in reopened


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------

def test_corrupt_entry_quarantined_and_recomputable(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("a"))
    path = os.path.join(cache.entries_dir, f"{_key(1)}.res")
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 0xFF  # flip one payload byte: CRC must catch it
    with open(path, "wb") as handle:
        handle.write(data)

    assert cache.get(_key(1)) is None  # miss, not a crash
    assert cache.counters["corrupt_entries"] == 1
    assert _key(1) not in cache
    # Evidence moved aside, never deleted.
    assert os.listdir(cache.quarantine_dir) == [f"{_key(1)}.res"]
    # The recomputed result stores and serves cleanly.
    cache.put(_key(1), _result("recomputed"))
    assert cache.get(_key(1)) == _result("recomputed")


def test_entry_naming_a_global_is_quarantined_not_run(tmp_path):
    marker = tmp_path / "ran"
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(_key(1), _result("a"))
    path = os.path.join(cache.entries_dir, f"{_key(1)}.res")
    with open(path, "wb") as handle:
        handle.write(encode_frame(
            ExecOnUnpickle(f"open({str(marker)!r}, 'w').close()")
        ))

    assert cache.get(_key(1)) is None  # a miss, so the daemon recomputes
    assert not marker.exists(), "the cache ran code from an entry file"
    assert cache.counters["corrupt_entries"] == 1
    assert os.listdir(cache.quarantine_dir) == [f"{_key(1)}.res"]


def test_truncated_entry_is_corruption_too(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("a"))
    path = os.path.join(cache.entries_dir, f"{_key(1)}.res")
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[:len(data) // 2])
    assert cache.get(_key(1)) is None
    assert cache.counters["corrupt_entries"] == 1


def test_torn_index_tail_truncated_on_load(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("a"))
    cache.put(_key(2), _result("b"))
    with open(cache.index_path, "ab") as handle:
        handle.write(b"RPX1\x00\x00")  # a torn append: header cut short

    reopened = ResultCache(str(tmp_path))
    assert reopened.counters["torn_index_tails"] == 1
    # The records before the tear survive...
    assert reopened.get(_key(1)) == _result("a")
    assert reopened.get(_key(2)) == _result("b")
    # ...and the tail was truncated away: the next load is clean.
    third = ResultCache(str(tmp_path))
    assert third.counters["torn_index_tails"] == 0


def test_garbage_index_tail_truncated_on_load(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("a"))
    with open(cache.index_path, "ab") as handle:
        handle.write(b"this is not a frame at all")
    reopened = ResultCache(str(tmp_path))
    assert reopened.counters["torn_index_tails"] == 1
    assert reopened.get(_key(1)) == _result("a")


def test_index_record_without_entry_file_is_dropped(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(_key(1), _result("a"))
    os.remove(os.path.join(cache.entries_dir, f"{_key(1)}.res"))
    reopened = ResultCache(str(tmp_path))
    assert _key(1) not in reopened
    assert reopened.get(_key(1)) is None


# ----------------------------------------------------------------------
# log compaction
# ----------------------------------------------------------------------

def test_mostly_dead_log_compacts_atomically(tmp_path):
    cache = ResultCache(str(tmp_path))
    for round_ in range(70):  # 70 put records for one live key
        cache.put(_key(1), _result(str(round_)))
    big = os.path.getsize(cache.index_path)

    reopened = ResultCache(str(tmp_path))  # load triggers compaction
    assert os.path.getsize(reopened.index_path) < big
    assert reopened.get(_key(1)) == _result("69")
    # The compacted log round-trips.
    third = ResultCache(str(tmp_path))
    assert third.get(_key(1)) == _result("69")


def test_rejects_silly_capacity(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(str(tmp_path), max_entries=0)
