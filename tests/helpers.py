"""Shared helpers for the test suite: brute-force oracles and generators.

Since the differential-testing subsystem landed, the reference
implementations live in :mod:`repro.testing` (oracles, generators,
laws) where both the test suite and the ``repro fuzz`` harness share
them.  This module keeps the historical names as thin aliases so
existing tests keep reading naturally.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.core import LTS
from repro.testing import (
    bounded_traces,
    branching_bisimulation_relation,
    is_trace_of,
    lts_strategy,
    tau_heavy_lts_strategy,
    weak_bisimulation_relation,
)

__all__ = [
    "bounded_traces",
    "is_trace_of",
    "lts_strategy",
    "tau_heavy_lts_strategy",
    "naive_branching_bisimulation",
    "naive_weak_bisimulation",
    "ExecOnUnpickle",
]


def naive_branching_bisimulation(lts: LTS) -> Set[Tuple[int, int]]:
    """Greatest branching bisimulation by naive fixpoint (Definition 4.1)."""
    return branching_bisimulation_relation(lts)


def naive_weak_bisimulation(lts: LTS) -> Set[Tuple[int, int]]:
    """Greatest weak bisimulation by naive fixpoint (Milner)."""
    return weak_bisimulation_relation(lts)


class ExecOnUnpickle:
    """A hostile payload: unpickling it calls ``exec(code)``."""

    def __init__(self, code: str) -> None:
        self.code = code

    def __reduce__(self):
        return (exec, (self.code,))
