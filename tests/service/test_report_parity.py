"""``submit`` prints the direct command's report, line for line.

``lin``, ``lockfree``, ``verify`` and the daemon run one verdict job
(:mod:`repro.verify.job`) and render its result with one renderer, so a
served verdict reads exactly like the direct run -- size lines,
reduction factor, per-engine lines, counterexample or lasso, the
lock-based skip line -- except for the time fields.
"""

import re

import pytest

from repro.cli import main
from repro.service import DaemonConfig, VerificationDaemon

CASES = [
    ["lin", "newcas", "--ops", "1"],
    ["lin", "hm_list_buggy"],
    ["lin", "newcas", "--ops", "1", "--method", "both"],
    ["lockfree", "hw_queue", "--ops", "1"],
    ["verify", "newcas", "--ops", "1"],
    ["verify", "hw_queue", "--ops", "1"],
    ["verify", "fine_list", "--ops", "1"],
]

_TIME = re.compile(r"\(\d+\.\d\ds\)")

#: The lines ``submit`` prints between its header and the report.
_SUBMIT_LINES = ("accepted as ", "progress: ", "note: ")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("report-parity")
    daemon = VerificationDaemon(DaemonConfig(
        socket=str(root / "svc.sock"),
        state_dir=str(root / "state"),
        job_workers=1,
    ))
    endpoint = daemon.start()
    yield endpoint
    daemon.shutdown()
    daemon.join(timeout=60.0)


def _report(out, skip=()):
    """The lines after the header, times masked, ``skip`` prefixes dropped."""
    return [
        _TIME.sub("(T)", line)
        for line in out.splitlines()[1:]
        if not line.startswith(skip)
    ]


@pytest.mark.parametrize("argv", CASES, ids=["-".join(a) for a in CASES])
def test_submit_prints_the_direct_report(service, argv, capsys):
    direct_code = main(list(argv))
    direct = _report(capsys.readouterr().out)
    served_code = main(["submit", *argv, "--socket", service])
    served = _report(capsys.readouterr().out, _SUBMIT_LINES)
    assert served == direct
    assert served_code == direct_code


def test_result_cached_by_an_older_layout_is_recomputed(tmp_path, monkeypatch,
                                                        capsys):
    from repro.service import cache as cache_module
    from repro.service.messages import build_request, request_cache_key

    config = DaemonConfig(socket=str(tmp_path / "svc.sock"),
                          state_dir=str(tmp_path / "state"), job_workers=1)
    key = request_cache_key(build_request("lockfree", "newcas", ops=1))
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "CACHE_SCHEMA", "repro.service-cache/v1")
        cache_module.ResultCache(str(tmp_path / "state" / "cache")).put(key, {
            "schema": "repro.service-result/v1", "job_id": "job-1",
            "kind": "lockfree", "key": "newcas", "method": "union",
            "verdict": "TRUE", "exit_code": 0, "impl_states": 142,
            "quotient_states": 24, "diagnostic": None, "exhaustion": None,
            "error": None, "seconds": 0.1, "cached": False, "resumed": False,
        })
    daemon = VerificationDaemon(config)
    endpoint = daemon.start()
    try:
        code = main(["submit", "lockfree", "newcas", "--ops", "1",
                     "--socket", endpoint])
        out = capsys.readouterr().out
    finally:
        daemon.shutdown()
        daemon.join(timeout=60.0)
    assert code == 0
    assert "served from cache" not in out
    assert "lock-free: TRUE" in out
    assert daemon.cache.counters["corrupt_entries"] == 1
