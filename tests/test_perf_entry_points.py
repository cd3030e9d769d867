"""The traced benchmark's layer entry points still exist.

``benchmarks/perf/traced.py`` calls each layer through a
``"repro.<module>:<name>"`` string.  A name that no longer resolves
does not fail the benchmark: it only turns that layer's per-layer
metrics into ``null``.  This test reads the script as text, resolves
every such entry point and fails if one is gone or not callable.
"""

import importlib
import re
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "traced.py"

ENTRY_POINT = re.compile(r'"(repro(?:\.\w+)+):(\w+)"')


def _entry_points():
    return sorted(set(ENTRY_POINT.findall(TRACED.read_text())))


def test_traced_script_names_entry_points():
    names = {f"{module}:{name}" for module, name in _entry_points()}
    assert "repro.parallel:maybe_parallel_explore" in names
    assert "repro.lang:explore" in names


@pytest.mark.parametrize(
    "module,name", _entry_points(), ids=lambda part: part
)
def test_traced_entry_point_is_callable(module, name):
    target = getattr(importlib.import_module(module), name, None)
    assert callable(target), f"{module}:{name} is gone or not callable"
