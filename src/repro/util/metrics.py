"""Lightweight pipeline observability: stage timers, counters, peak RSS.

Every hot path of the verification pipelines (client exploration,
partition refinement, quotienting, antichain trace refinement) accepts
an optional :class:`Stats` sink.  Instrumentation is strictly
pay-for-what-you-use: when no sink is passed the hot loops run the
exact same code as before -- all recording happens at stage boundaries
(around whole loops), never per transition, so the default path has no
per-iteration callbacks at all.  An A/B timing test
(``tests/util/test_metrics.py``) guards that property.

Usage::

    stats = Stats()
    result = check_linearizability(..., stats=stats)
    print(stats.render("treiber 2x2"))
    json.dump(stats.to_dict(), open("stats.json", "w"))

Stages nest: entering ``stage("quotient")`` and then
``stage("refinement")`` records time under the path
``quotient/refinement``.  Counters recorded while a stage is active are
namespaced by that stage's path (``quotient/refinement.splits``);
counters are monotonically increasing (negative increments are
rejected), so a sink can be shared across pipeline phases and keeps
accumulating.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Dict, Iterator, List, Optional

from .tables import render_table

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknown)."""
    if _resource is None:  # pragma: no cover
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


class Stats:
    """A sink for per-stage wall times, counters and peak-RSS samples.

    Attributes
    ----------
    stage_seconds:
        Ordered mapping from stage path (``"quotient/refinement"``) to
        accumulated wall seconds.
    counters:
        Monotonically-increasing named counters.  Counters recorded
        inside an active stage are keyed ``<stage-path>.<name>``.
    peak_rss_kb:
        Largest resident-set-size sample seen (KiB; 0 if unavailable).
    """

    __slots__ = ("stage_seconds", "counters", "peak_rss_kb", "_stack")

    SCHEMA = "repro.stats/v1"

    def __init__(self) -> None:
        self.stage_seconds: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.peak_rss_kb: int = 0
        self._stack: List[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator["Stats"]:
        """Time a (possibly nested) pipeline stage."""
        if "/" in name or "." in name:
            raise ValueError(f"stage name may not contain '/' or '.': {name!r}")
        path = f"{self._stack[-1]}/{name}" if self._stack else name
        self.stage_seconds.setdefault(path, 0.0)
        self._stack.append(path)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.stage_seconds[path] += elapsed
            self.sample_rss()

    def count(self, name: str, amount: int = 1) -> None:
        """Increase a counter (attributed to the active stage, if any)."""
        if amount < 0:
            raise ValueError(f"counters are monotonic; got {name}={amount}")
        key = f"{self._stack[-1]}.{name}" if self._stack else name
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample_rss(self) -> int:
        """Record a peak-RSS sample; returns the current peak in KiB."""
        self.peak_rss_kb = max(self.peak_rss_kb, peak_rss_kb())
        return self.peak_rss_kb

    def merge(self, other: "Stats") -> None:
        """Fold another sink into this one (sums times and counters)."""
        for path, seconds in other.stage_seconds.items():
            self.stage_seconds[path] = self.stage_seconds.get(path, 0.0) + seconds
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.peak_rss_kb = max(self.peak_rss_kb, other.peak_rss_kb)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Wall seconds over the top-level (non-nested) stages."""
        return sum(
            seconds
            for path, seconds in self.stage_seconds.items()
            if "/" not in path
        )

    def stage_counters(self, path: str) -> Dict[str, int]:
        """Counters attributed directly to the stage at ``path``."""
        prefix = path + "."
        return {
            key[len(prefix):]: value
            for key, value in self.counters.items()
            if key.startswith(prefix) and "/" not in key[len(prefix):]
        }

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of everything recorded."""
        return {
            "schema": self.SCHEMA,
            "stages": [
                {"stage": path, "seconds": seconds}
                for path, seconds in self.stage_seconds.items()
            ],
            "counters": dict(self.counters),
            "peak_rss_kb": self.peak_rss_kb,
            "total_seconds": self.total_seconds,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self, title: Optional[str] = None) -> str:
        """The per-stage ASCII table printed by ``--stats``."""
        rows = []
        for path, seconds in self.stage_seconds.items():
            depth = path.count("/")
            name = ("  " * depth) + path.rsplit("/", 1)[-1]
            counters = self.stage_counters(path)
            detail = "  ".join(f"{k}={v}" for k, v in counters.items())
            rows.append([name, f"{seconds:.3f}", detail])
        global_counters = {
            key: value for key, value in self.counters.items() if "." not in key
        }
        if global_counters:
            detail = "  ".join(f"{k}={v}" for k, v in global_counters.items())
            rows.append(["(global)", "", detail])
        rows.append(["total", f"{self.total_seconds:.3f}",
                     f"peak_rss_kb={self.peak_rss_kb}"])
        return render_table(["stage", "seconds", "counters"], rows, title=title)


def stage(stats: Optional[Stats], name: str) -> ContextManager:
    """``stats.stage(name)``, or a free no-op when ``stats`` is None.

    Lets pipeline code keep a single code path::

        with stage(stats, "quotient"):
            ...
    """
    if stats is None:
        return nullcontext()
    return stats.stage(name)
