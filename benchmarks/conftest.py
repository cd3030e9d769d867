"""Shared configuration for the paper-reproduction benches.

Each bench regenerates one table or figure of the paper.  Instance
bounds scale with the ``REPRO_BENCH_SCALE`` environment variable:

* ``small``  (default) -- minutes of CPython time, all verdicts and
  shape results reproduced at reduced bounds;
* ``medium`` -- tens of minutes, adds the larger rows;
* ``large``  -- the biggest rows that are feasible at interpreter
  speed (the paper's largest instances, e.g. 7.6e7 states, are out of
  reach for pure Python -- see DESIGN.md).

Rendered tables are printed and written to ``benchmarks/out/``.
"""

import json
import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.util.metrics import Stats  # noqa: E402

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
OUT_DIR = pathlib.Path(__file__).parent / "out"
_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
PIPELINE_JSON = _REPO_ROOT / "BENCH_pipeline.json"
REACHABILITY_JSON = _REPO_ROOT / "BENCH_reachability.json"
ONTHEFLY_JSON = _REPO_ROOT / "BENCH_onthefly.json"

#: Named per-bench metric sinks, aggregated at session end.
_PIPELINE_SINKS = {}

#: Per-case verdict-engine comparison records (quotient vs reachability).
_REACHABILITY_RESULTS = {}

#: Per-case on-the-fly vs full-exploration comparison records.
_ONTHEFLY_RESULTS = {}


@pytest.fixture(scope="session")
def bench_scale():
    return SCALE


@pytest.fixture(scope="session")
def bench_out():
    """Write a rendered table to benchmarks/out/<name>.txt and echo it."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)

    return write


@pytest.fixture(scope="session")
def pipeline_stats():
    """Named :class:`repro.util.metrics.Stats` sinks for bench pipelines.

    ``pipeline_stats("table3/ms_queue 2x2")`` returns (creating on first
    use) a sink to pass as ``stats=`` into the verification pipelines.
    At session end all sinks are aggregated into ``BENCH_pipeline.json``
    at the repo root (merged with any existing file, so scales and
    tables accumulate across runs).
    """

    def sink(name: str) -> Stats:
        return _PIPELINE_SINKS.setdefault(name, Stats())

    return sink


@pytest.fixture(scope="session")
def reachability_results():
    """Recorder for quotient-vs-reachability verdict-engine records.

    ``reachability_results("hm_list 2x2", {...})`` stores one
    JSON-serialisable record per case.  At session end the records are
    merged into ``BENCH_reachability.json`` at the repo root.
    """

    def record(name: str, payload: dict) -> None:
        _REACHABILITY_RESULTS[name] = payload

    return record


@pytest.fixture(scope="session")
def onthefly_results():
    """Recorder for on-the-fly vs full-exploration verdict records.

    ``onthefly_results("hm_list_buggy 2x2", {...})`` stores one
    JSON-serialisable record per case.  At session end the records are
    merged into ``BENCH_onthefly.json`` at the repo root.
    """

    def record(name: str, payload: dict) -> None:
        _ONTHEFLY_RESULTS[name] = payload

    return record


def _merge_json(path, schema, key, fresh):
    payload = {"schema": schema, "scale": SCALE, key: {}}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = {}
        if previous.get("schema") == schema:
            payload[key].update(previous.get(key, {}))
    payload[key].update(fresh)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def pytest_sessionfinish(session, exitstatus):
    if _PIPELINE_SINKS:
        _merge_json(
            PIPELINE_JSON,
            "repro.bench-pipeline/v1",
            "benches",
            {name: sink.to_dict() for name, sink in sorted(_PIPELINE_SINKS.items())},
        )
    if _REACHABILITY_RESULTS:
        _merge_json(
            REACHABILITY_JSON,
            "repro.bench-reachability/v1",
            "cases",
            dict(sorted(_REACHABILITY_RESULTS.items())),
        )
    if _ONTHEFLY_RESULTS:
        _merge_json(
            ONTHEFLY_JSON,
            "repro.bench-onthefly/v1",
            "cases",
            dict(sorted(_ONTHEFLY_RESULTS.items())),
        )
