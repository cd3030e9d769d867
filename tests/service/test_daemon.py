"""Daemon behavior: caching, dedup, backpressure, disconnects, resume.

All tests run an in-process daemon on a Unix socket under ``tmp_path``
(the ``start()`` test path); the CLI/process-level equivalent lives in
``scripts/service_smoke.py`` and the CI service-smoke job.
"""

import os
import threading
import time

import pytest

from repro.parallel.protocol import encode_frame
from repro.service import (
    DaemonConfig,
    ServiceClient,
    SubmissionRejected,
    VerificationDaemon,
    request_cache_key,
)
from repro.service.messages import build_request
from repro.util.budget import EXIT_INTERRUPTED, REASON_INTERRUPTED
from tests.helpers import ExecOnUnpickle


def _config(tmp_path, name="svc", **overrides):
    defaults = dict(
        socket=str(tmp_path / f"{name}.sock"),
        state_dir=str(tmp_path / f"{name}-state"),
        heartbeat_seconds=0.1,
        # Small but nonzero: 0.0 would snapshot on every expansion.
        # Exhaustion always salvage-saves regardless of the interval.
        checkpoint_seconds=0.1,
    )
    defaults.update(overrides)
    return DaemonConfig(**defaults)


def _start(config):
    daemon = VerificationDaemon(config)
    endpoint = daemon.start()
    return daemon, endpoint


def _stop(daemon):
    daemon.shutdown()
    daemon.join(timeout=30.0)


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _request(**overrides):
    base = dict(kind="lin", key="newcas")
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# basic service
# ----------------------------------------------------------------------

def test_ping_and_status(tmp_path):
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as client:
            assert client.ping()
            status = client.status()
            assert status["schema"] == "repro.service-status/v1"
            assert status["capacity"] == 8
            assert status["jobs"] == {}
            assert "cache" in status
    finally:
        _stop(daemon)


def test_lin_job_verdict_and_second_submission_served_from_cache(tmp_path):
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as client:
            first = client.submit_and_wait(_request())
        assert first["verdict"] == "TRUE"
        assert first["exit_code"] == 0
        assert first["cached"] is False
        assert first["counterexample"] is None

        with ServiceClient.connect(endpoint) as client:
            second = client.submit_and_wait(_request())
        assert second["cached"] is True
        # Cache identity strips the verdict-preserving knobs: a request
        # differing only in resource caps hits the same entry.
        with ServiceClient.connect(endpoint) as client:
            third = client.submit_and_wait(_request(max_states=99999))
        assert third["cached"] is True

        assert daemon.counters["jobs_run"] == 1
        assert daemon.counters["cache_served"] == 2
        assert daemon.cache.stats()["hits"] == 2
        for key in ("verdict", "exit_code", "kind", "key", "method"):
            assert second[key] == first[key]
    finally:
        _stop(daemon)


def test_explore_and_lockfree_kinds(tmp_path):
    from repro.lang import explore
    from repro.objects import get
    from repro.verify.job import request_program_config

    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as client:
            explored = client.submit_and_wait(_request(kind="explore"))
            lockfree = client.submit_and_wait(_request(kind="lockfree"))
        _bench, program, config = request_program_config(
            build_request(kind="explore", key="newcas"))
        direct = explore(program, config)
        assert explored["impl_states"] == direct.num_states
        assert explored["impl_transitions"] == direct.num_transitions
        assert explored["exit_code"] == 0

        assert get("newcas").expect_lock_free is True
        assert lockfree["verdict"] == "TRUE"
        assert lockfree["exit_code"] == 0
        assert lockfree["diagnostic"] is None
    finally:
        _stop(daemon)


def test_lin_method_both_reports_both_engines(tmp_path):
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as client:
            result = client.submit_and_wait(_request(method="both"))
        assert result["verdict"] == "TRUE"
        assert result["disagree"] is False
        assert result["quotient"]["verdict"] == "TRUE"
        assert result["reachability"]["verdict"] == "TRUE"
        assert result["quotient"]["engine"] == "quotient"
        assert result["reachability"]["engine"] == "reachability"
    finally:
        _stop(daemon)


def test_malformed_submissions_rejected_without_harm(tmp_path):
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as client:
            with pytest.raises(SubmissionRejected, match="kind"):
                client.submit(_request(kind="frobnicate"))
            with pytest.raises(SubmissionRejected, match="benchmark"):
                client.submit(_request(key="no_such_object"))
            # The connection survives rejected submissions.
            assert client.ping()
        assert daemon.counters["jobs_rejected"] == 2
        assert daemon.counters["jobs_accepted"] == 0
    finally:
        _stop(daemon)


def test_engine_field_rejected_up_front(tmp_path):
    # There is one refinement engine, so a submission naming one is
    # refused at the door and counted, never queued to fail inside a
    # worker thread.
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as client:
            with pytest.raises(SubmissionRejected, match="engine"):
                client.submit(_request(**{"engine": "sweep"}))
            assert client.ping()
        assert daemon.counters["jobs_rejected"] == 1
        assert daemon.counters["jobs_accepted"] == 0
    finally:
        _stop(daemon)


def test_protocol_garbage_poisons_only_that_connection(tmp_path):
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as bad:
            bad.channel.sock.sendall(b"garbage!" * 4)
            reply = bad.channel.recv(timeout=10.0)
            assert reply[0] == "rejected"
            assert "protocol fault" in reply[1]
        assert _wait_for(lambda: daemon.counters["protocol_errors"] == 1)
        # A fresh connection is unaffected.
        with ServiceClient.connect(endpoint) as good:
            assert good.ping()
            assert good.submit_and_wait(_request())["verdict"] == "TRUE"
    finally:
        _stop(daemon)


def test_frame_naming_a_global_is_refused_not_run(tmp_path):
    marker = tmp_path / "ran"
    hostile = ExecOnUnpickle(f"open({str(marker)!r}, 'w').close()")
    daemon, endpoint = _start(_config(tmp_path))
    try:
        with ServiceClient.connect(endpoint) as bad:
            bad.channel.sock.sendall(encode_frame(("submit", hostile)))
            reply = bad.channel.recv(timeout=10.0)
            assert not marker.exists(), "the daemon ran code from a frame"
            assert reply[0] == "rejected"
            assert "protocol fault" in reply[1] and "refused" in reply[1]
        assert _wait_for(lambda: daemon.counters["protocol_errors"] == 1)
        # The daemon keeps serving.
        with ServiceClient.connect(endpoint) as good:
            assert good.ping()
    finally:
        _stop(daemon)


def test_idle_connection_receives_heartbeats(tmp_path):
    daemon, endpoint = _start(_config(tmp_path, heartbeat_seconds=0.05))
    try:
        with ServiceClient.connect(endpoint) as client:
            message = client.channel.recv(timeout=10.0)
            assert message == ("heartbeat",)
    finally:
        _stop(daemon)


# ----------------------------------------------------------------------
# queueing: dedup, backpressure, disconnects
# ----------------------------------------------------------------------

def test_identical_concurrent_submissions_share_one_run(tmp_path):
    gate = threading.Event()
    daemon, endpoint = _start(_config(tmp_path, job_gate=gate))
    try:
        with ServiceClient.connect(endpoint) as first, \
                ServiceClient.connect(endpoint) as second:
            tag_a, job_a, meta_a = first.submit(_request())
            tag_b, job_b, meta_b = second.submit(_request())
            assert (tag_a, meta_a["dedup"]) == ("accepted", False)
            assert (tag_b, meta_b["dedup"]) == ("accepted", True)
            assert job_a == job_b
            gate.set()
            result_a = first.wait_result(job_a)
            result_b = second.wait_result(job_b)
        assert result_a["verdict"] == result_b["verdict"] == "TRUE"
        assert daemon.counters["jobs_run"] == 1
        assert daemon.counters["jobs_deduped"] == 1
    finally:
        gate.set()
        _stop(daemon)


def test_full_queue_answers_backpressure_not_collapse(tmp_path):
    gate = threading.Event()
    daemon, endpoint = _start(
        _config(tmp_path, queue_size=1, job_gate=gate))
    try:
        with ServiceClient.connect(endpoint) as client:
            client.submit(_request())  # occupies the whole queue
            with pytest.raises(SubmissionRejected, match="backpressure"):
                client.submit(_request(key="treiber"))
            assert daemon.counters["jobs_rejected"] == 1
            gate.set()
            # Once the queue drains, the same submission is admitted.
            assert _wait_for(lambda: not daemon._jobs)
            retried = client.submit_and_wait(_request(key="treiber"))
        assert retried["verdict"] == "TRUE"
    finally:
        gate.set()
        _stop(daemon)


def test_disconnected_client_job_runs_on_and_parks_in_cache(tmp_path):
    gate = threading.Event()
    daemon, endpoint = _start(_config(tmp_path, job_gate=gate))
    try:
        client = ServiceClient.connect(endpoint)
        client.submit(_request())
        client.close()  # walk away mid-job
        assert _wait_for(lambda: daemon.counters["client_disconnects"] == 1)
        gate.set()
        assert _wait_for(lambda: daemon.counters["results_parked"] == 1)
        # The resubmission finds the parked result.
        with ServiceClient.connect(endpoint) as again:
            result = again.submit_and_wait(_request())
        assert result["cached"] is True
        assert result["verdict"] == "TRUE"
        assert daemon.counters["jobs_run"] == 1
    finally:
        gate.set()
        _stop(daemon)


# ----------------------------------------------------------------------
# interruption, restart, resume
# ----------------------------------------------------------------------

def test_deadline_exhaustion_leaves_checkpoint_then_resume_finishes(tmp_path):
    daemon, endpoint = _start(_config(tmp_path))
    key = request_cache_key(build_request(kind="lin", key="treiber"))
    try:
        with ServiceClient.connect(endpoint) as client:
            starved = client.submit_and_wait(
                _request(key="treiber", deadline=0.0))
        assert starved["verdict"] == "UNKNOWN"
        assert starved["exit_code"] == 2
        assert starved["exhaustion"]["reason"] == "deadline"
        # UNKNOWN is never cached; the salvage checkpoint is on disk.
        assert daemon.cache.stats()["puts"] == 0
        assert os.path.exists(os.path.join(
            daemon.jobs_dir, f"{key}.ckpt"))

        with ServiceClient.connect(endpoint) as client:
            finished = client.submit_and_wait(_request(key="treiber"))
        assert finished["verdict"] == "TRUE"
        assert finished["resumed"] is True
        assert daemon.counters["jobs_resumed"] == 1
        # Decided: cached, and the spent checkpoint is gone.
        assert not os.path.exists(os.path.join(
            daemon.jobs_dir, f"{key}.ckpt"))
    finally:
        _stop(daemon)


def test_decided_result_with_an_unknown_part_is_not_cached(tmp_path, monkeypatch):
    # FALSE overall, but lock-freedom ran out of budget: the result
    # depends on this job's deadline, so it must not be served to a
    # later submission, and the checkpoint stays for the rerun.
    import repro.service.daemon as daemon_module
    from repro.core.lts import LTSBuilder
    from repro.lang.checkpoint import Checkpoint
    from repro.verify.job import _result

    def run_job(request, checkpoint=None, **_kwargs):
        checkpoint.save(Checkpoint(fingerprint={}, builder=LTSBuilder()))
        ran_out = {"reason": "deadline", "phase": "refinement",
                   "render": "budget exhausted in phase 'refinement'"}
        return _result(request, [
            {"engine": "quotient", "verdict": "FALSE", "exhaustion": None,
             "seconds": 0.1},
            {"engine": "lockfree", "verdict": "UNKNOWN", "exhaustion": ran_out,
             "seconds": 0.1},
            {"engine": "obstruction", "verdict": "TRUE", "exhaustion": None,
             "seconds": 0.1},
        ], 0.3)

    monkeypatch.setattr(daemon_module, "run_job", run_job)
    daemon, endpoint = _start(_config(tmp_path))
    key = request_cache_key(build_request(kind="verify", key="hm_list_buggy"))
    try:
        with ServiceClient.connect(endpoint) as client:
            first = client.submit_and_wait(
                _request(kind="verify", key="hm_list_buggy"))
        assert (first["verdict"], first["exit_code"]) == ("FALSE", 1)
        assert first["exhaustion"]["reason"] == "deadline"
        assert daemon.cache.stats()["puts"] == 0
        assert os.path.exists(os.path.join(daemon.jobs_dir, f"{key}.ckpt"))

        with ServiceClient.connect(endpoint) as client:
            second = client.submit_and_wait(
                _request(kind="verify", key="hm_list_buggy"))
        assert second["cached"] is False
        assert daemon.counters["jobs_run"] == 2
    finally:
        _stop(daemon)


def test_graceful_shutdown_interrupts_job_and_restart_resumes(tmp_path):
    gate = threading.Event()
    config = _config(tmp_path, job_gate=gate)
    daemon, endpoint = _start(config)
    closings = []

    client = ServiceClient.connect(endpoint)
    _tag, job_id, _meta = client.submit(_request(key="treiber"))
    # Shut down while the job is gated: the token trips, the explorer
    # checkpoints on its way out, and the UNKNOWN still gets delivered.
    daemon.shutdown()
    interrupted = client.wait_result(job_id, on_closing=closings.append)
    client.close()
    daemon.join(timeout=30.0)
    assert closings == ["daemon shutting down"]
    assert interrupted["verdict"] == "UNKNOWN"
    assert interrupted["exit_code"] == EXIT_INTERRUPTED
    assert interrupted["exhaustion"]["reason"] == REASON_INTERRUPTED
    key = request_cache_key(build_request(kind="lin", key="treiber"))
    ckpt = os.path.join(daemon.jobs_dir, f"{key}.ckpt")
    assert os.path.exists(ckpt)
    # The Unix socket path was cleaned up on exit.
    assert not os.path.exists(config.socket)

    # Same state dir, fresh daemon: the resubmission resumes.
    restarted, endpoint = _start(_config(tmp_path, state_dir=config.state_dir))
    try:
        with ServiceClient.connect(endpoint) as again:
            finished = again.submit_and_wait(_request(key="treiber"))
        assert finished["verdict"] == "TRUE"
        assert finished["resumed"] is True
        assert restarted.counters["jobs_resumed"] == 1
    finally:
        _stop(restarted)


def test_cache_survives_restart_and_corruption_forces_recompute(tmp_path):
    config = _config(tmp_path)
    daemon, endpoint = _start(config)
    with ServiceClient.connect(endpoint) as client:
        first = client.submit_and_wait(_request())
    _stop(daemon)

    restarted, endpoint = _start(
        _config(tmp_path, name="svc2", state_dir=config.state_dir))
    try:
        with ServiceClient.connect(endpoint) as client:
            warm = client.submit_and_wait(_request())
        assert warm["cached"] is True
        assert warm["verdict"] == first["verdict"]
        assert restarted.counters["jobs_run"] == 0

        # Corrupt the entry on disk: the daemon must quarantine it and
        # recompute, not crash or serve garbage.
        entries = restarted.cache.entries_dir
        (name,) = os.listdir(entries)
        path = os.path.join(entries, name)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(blob)

        with ServiceClient.connect(endpoint) as client:
            recomputed = client.submit_and_wait(_request())
        assert recomputed["cached"] is False
        assert recomputed["verdict"] == first["verdict"]
        assert restarted.cache.counters["corrupt_entries"] == 1
        assert os.listdir(restarted.cache.quarantine_dir) == [name]
        assert restarted.counters["jobs_run"] == 1

        # ...and the recomputed verdict is cached again.
        with ServiceClient.connect(endpoint) as client:
            assert client.submit_and_wait(_request())["cached"] is True
    finally:
        _stop(restarted)


def test_submissions_during_shutdown_are_rejected(tmp_path):
    from repro.service import ServiceError

    daemon, endpoint = _start(_config(tmp_path))
    client = ServiceClient.connect(endpoint)
    try:
        daemon.shutdown()
        # A submission racing the shutdown is never silently dropped:
        # either the goodbye arrives and the submission is rejected, or
        # the drained daemon already closed the socket and the failure
        # is loud.  (With no jobs in flight the daemon may exit before
        # the client reads the closing frame, hence both branches.)
        with pytest.raises((SubmissionRejected, ServiceError)):
            client.channel.recv_until(("closing",), timeout=10.0)
            client.submit(_request())
    finally:
        client.close()
        daemon.join(timeout=30.0)
