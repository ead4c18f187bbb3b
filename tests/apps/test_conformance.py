"""Cross-app conformance: every registered workload honors the contract.

Parametrized over :func:`repro.apps.registered_apps`, so adding a
workload to the registry automatically subjects it to the same
checks the original apps pass:

* profiling is deterministic under the config's fixed seed — two cold
  runs produce byte-identical profile documents;
* the emitted trace survives a columnar-store round trip bit-exactly;
* an :class:`~repro.apps.AppProfileCache` warm run returns a profile
  byte-identical to the cold one;
* fast-forward refusals are *recorded*, never silent: disabling the
  engine yields ``reason == "disabled"``, and a profile that was not
  certified carries a non-empty reason string.

This is also the CPU-only app's first direct coverage — previously it
was only exercised through the Sec III-D experiment.
"""

import dataclasses
import json

import pytest

from repro.apps import AppProfileCache, registered_apps
from repro.apps.profilecache import _profile_doc
from repro.trace.store import Trace

from ..bytesdiff import assert_same_document

APPS = registered_apps()
APP_IDS = [app.name for app in APPS]


def profile_doc_json(profile):
    """Canonical byte representation of a profile document."""
    return json.dumps(_profile_doc(profile), sort_keys=True)


@pytest.fixture(params=APPS, ids=APP_IDS)
def app(request):
    return request.param


class TestRegistryShape:
    def test_four_builtin_workloads(self):
        assert [a.name for a in APPS] == [
            "cosmoflow", "cpuonly", "inference", "lammps",
        ]

    def test_conformance_config_is_the_declared_type(self, app):
        assert isinstance(app.conformance_config(), app.config_type)

    def test_default_config_is_the_declared_type(self, app):
        for quick in (True, False):
            assert isinstance(app.default_config(quick), app.config_type)

    def test_quick_config_is_not_the_full_config(self, app):
        # quick must actually shorten the run, not alias the full one.
        assert app.default_config(True) != app.default_config(False)


class TestDeterminism:
    def test_profile_is_deterministic_under_fixed_seed(self, app):
        cfg = app.conformance_config()
        a = app.profiler(cfg)
        b = app.profiler(cfg)
        assert_same_document(profile_doc_json(a), profile_doc_json(b))

    def test_profile_name_matches_registry_name(self, app):
        assert app.profiler(app.conformance_config()).name == app.name

    def test_profile_invariants(self, app):
        profile = app.profiler(app.conformance_config())
        assert profile.runtime_s > 0
        assert profile.queue_parallelism >= 1
        assert profile.cuda_calls_per_second >= 0
        # A workload that declares a penalty exposes CUDA API traffic
        # for the slack model to act on; the no-penalty category must
        # expose none (that *is* its Sec III-D argument).
        if app.penalty.kind == "none":
            assert profile.cuda_calls_per_second == 0
            assert len(profile.trace) == 0
        else:
            assert profile.cuda_calls_per_second > 0
            assert len(profile.trace) > 0


class TestTraceRoundTrip:
    def test_store_round_trip_is_bit_exact(self, app):
        profile = app.profiler(app.conformance_config())
        trace = profile.trace
        assert isinstance(trace, Trace)
        doc = trace.to_doc()
        restored = Trace.from_doc(doc)
        assert restored.to_doc() == doc
        assert list(restored) == list(trace)


class TestProfileCacheWarmRun:
    def test_warm_run_is_byte_identical(self, app, tmp_path):
        cache = AppProfileCache(tmp_path / "profiles")
        cfg = app.conformance_config()
        cold = app.profiler(cfg)
        cache.put(app.name, cfg, cold)
        warm = cache.get(app.name, cfg)
        assert warm is not None
        assert cache.hits == 1 and cache.corrupt == 0
        assert_same_document(profile_doc_json(warm), profile_doc_json(cold))

    def test_model_version_partitions_the_cache(self, app, tmp_path):
        # A bumped model_version must never serve the old entry; the
        # registry's version joins the digest, so distinct registered
        # names (with distinct versions) land on distinct paths.
        cache = AppProfileCache(tmp_path / "profiles")
        cfg = app.conformance_config()
        others = [a for a in APPS if a.name != app.name]
        for other in others:
            assert cache.path_for(app.name, cfg) != cache.path_for(
                other.name, cfg
            )


class TestFastForwardRefusals:
    def test_disabled_engine_records_disabled(self, app):
        profile = app.profiler(
            app.conformance_config(), fast_forward=False
        )
        ff = profile.fastforward
        assert ff is not None
        assert not ff.enabled
        assert not ff.certified
        assert ff.reason == "disabled"

    def test_refusal_reason_is_never_silent(self, app):
        profile = app.profiler(app.conformance_config())
        ff = profile.fastforward
        assert ff is not None
        if not ff.certified:
            assert isinstance(ff.reason, str) and ff.reason

    def test_natural_refusals_name_the_cause(self):
        # No batch app skips its steady state; each says why.
        by_name = {a.name: a for a in APPS}
        reasons = {
            "lammps": "no-app-skip",
            "cosmoflow": "no-app-skip",
            "inference": "aperiodic-arrivals",
            "cpuonly": "cpu-only",
        }
        for name, expected in reasons.items():
            app = by_name[name]
            ff = app.profiler(app.conformance_config()).fastforward
            assert ff.reason == expected

    def test_fastforward_record_drops_from_cache_round_trip(
        self, app, tmp_path
    ):
        # fastforward is compare=False diagnostics; the cached copy
        # legitimately loses it and compares equal regardless.
        cache = AppProfileCache(tmp_path / "profiles")
        cfg = app.conformance_config()
        cold = app.profiler(cfg)
        cache.put(app.name, cfg, cold)
        warm = cache.get(app.name, cfg)
        assert warm.fastforward is None
        assert_same_document(
            profile_doc_json(warm),
            profile_doc_json(dataclasses.replace(cold, fastforward=None)),
        )
