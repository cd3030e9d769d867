"""Request normalization and cache-key identity.

The cache key is the service's correctness linchpin: two requests map
to one key iff they are *the same job* -- so resource caps and
verdict-preserving performance toggles must be excluded, and anything
that can change the verdict must be included.
"""

import pytest

from repro.service.messages import (
    build_request,
    cache_key,
    request_cache_key,
    service_fingerprint,
)


def _request(**overrides):
    base = dict(kind="lin", key="treiber")
    base.update(overrides)
    return build_request(**base)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        build_request(kind="frobnicate", key="treiber")


def test_unknown_object_rejected():
    with pytest.raises(ValueError, match="benchmark object"):
        build_request(kind="lin", key="no_such_object")


@pytest.mark.parametrize("field", ["threads", "ops", "values"])
def test_nonpositive_bounds_rejected(field):
    with pytest.raises(ValueError):
        _request(**{field: 0})


def test_method_defaults_per_kind():
    assert _request()["method"] == "quotient"
    assert _request(kind="lockfree")["method"] == "union"
    assert _request(kind="explore")["method"] is None


def test_unknown_field_rejected():
    # There is one refinement engine, so a request naming one is
    # malformed -- rejected here instead of failing later in a worker.
    with pytest.raises(TypeError, match="engine"):
        _request(**{"engine": "sweep"})


def test_bad_method_for_kind_rejected():
    with pytest.raises(ValueError, match="lin method"):
        _request(method="union")
    with pytest.raises(ValueError, match="lockfree method"):
        _request(kind="lockfree", method="quotient")


# ----------------------------------------------------------------------
# cache-key identity
# ----------------------------------------------------------------------

def test_cache_key_is_deterministic():
    request = _request()
    assert request_cache_key(request) == request_cache_key(request)
    assert len(request_cache_key(request)) == 64  # sha256 hex


def test_cache_key_ignores_resource_caps_and_perf_toggles():
    base = request_cache_key(_request())
    # Neither can change a *decided* verdict, so neither may change
    # the key: max_states / deadline are caps.
    assert request_cache_key(_request(max_states=5000)) == base
    assert request_cache_key(_request(deadline=1.5)) == base


@pytest.mark.parametrize("override", [
    {"kind": "lockfree"},
    {"key": "ms_queue"},
    {"threads": 3},
    {"ops": 3},
    {"values": 3},
    {"method": "reachability"},
])
def test_cache_key_separates_distinct_jobs(override):
    assert request_cache_key(_request(**override)) != \
        request_cache_key(_request())


def test_fingerprint_carries_schema_and_property():
    fp = service_fingerprint(_request())
    assert fp["schema"] == "repro.service-fingerprint/v1"
    assert fp["kind"] == "lin"
    assert fp["method"] == "quotient"
    assert "impl" in fp
    # cache_key is pure over the fingerprint dict
    assert cache_key(fp) == cache_key(dict(fp))
