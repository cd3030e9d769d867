"""``repro submit`` retry flags: validation, backoff, exit-code parity.

The retry knobs must never change *what* the daemon answers -- only how
stubbornly the client dials.  The parity test pins that: the same job
submitted with and without ``--connect-attempts/--retry-backoff`` exits with the
same code, which is also the direct pipeline's code.
"""

import pytest

from repro.cli import main
from repro.objects import get
from repro.service import DaemonConfig, VerificationDaemon
from repro.util.budget import EXIT_UNKNOWN, exit_code_for
from repro.verify import check_linearizability


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("submit-retry")
    daemon = VerificationDaemon(DaemonConfig(
        socket=str(root / "svc.sock"),
        state_dir=str(root / "state"),
        queue_size=4,
        job_workers=1,
    ))
    endpoint = daemon.start()
    yield endpoint
    daemon.shutdown()
    daemon.join(timeout=60.0)


def test_zero_retries_rejected(capsys):
    code = main([
        "submit", "lin", "newcas", "--socket", "/nonexistent.sock",
        "--connect-attempts", "0",
    ])
    assert code == EXIT_UNKNOWN
    assert "--connect-attempts" in capsys.readouterr().err


def test_malformed_retry_backoff_rejected(capsys):
    code = main([
        "submit", "lin", "newcas", "--socket", "/nonexistent.sock",
        "--retry-backoff", "fast:please",
    ])
    assert code == EXIT_UNKNOWN
    assert "--retry-backoff" in capsys.readouterr().err


def test_unreachable_daemon_is_unknown_after_retries(tmp_path, capsys):
    missing = str(tmp_path / "nobody.sock")
    code = main([
        "submit", "lin", "newcas", "--socket", missing,
        "--connect-attempts", "3", "--retry-backoff", "0.01:0.02",
        "--connect-timeout", "0.5",
    ])
    assert code == EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert "cannot connect" in err
    assert "3 attempt(s)" in err  # --connect-attempts reached the dialer


def test_retry_flags_preserve_exit_code_parity(service):
    bench = get("newcas")
    direct = check_linearizability(
        bench.build(2), bench.spec(), num_threads=2, ops_per_thread=1,
        workload=bench.default_workload(),
    )
    expected = exit_code_for(direct.verdict)
    argv = ["submit", "lin", "newcas", "--socket", service,
            "--threads", "2", "--ops", "1"]
    plain = main(list(argv))
    retried = main(argv + ["--connect-attempts", "5", "--retry-backoff", "0.05:0.5"])
    assert plain == expected
    assert retried == expected
