"""The content-addressed application-profile cache."""

import dataclasses
import io
import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.apps import (
    PROFILE_CACHE_VERSION,
    AppProfileCache,
    AppProfile,
    profile_key,
)
from repro.apps.cosmoflow import CosmoFlowProfileConfig, profile_cosmoflow
from repro.apps.lammps import LammpsProfileConfig, LJParams, profile_lammps
from repro.apps.profilecache import _profile_arrays, _profile_doc
from repro.experiments import ExperimentContext
from repro.obs import collecting
from repro.trace import CopyKind, EventKind, Trace, TraceEvent

from ..bytesdiff import assert_same_document
from ..oracles.trace import events_in_record_order


def small_profile(name="app"):
    trace = Trace(name=name)
    trace.record_fast(EventKind.KERNEL, "pair", 0.0, 1.5e-3, stream=0,
                      meta={"n": 3})
    trace.record_fast(EventKind.MEMCPY, "up", 2e-3, 2.5e-3, stream=1,
                      nbytes=4096, copy_kind=CopyKind.H2D)
    trace.record_fast(EventKind.API, "cudaLaunchKernel", 0.0, 5e-6, thread=2)
    return AppProfile(
        name=name,
        trace=trace,
        runtime_s=0.25,
        queue_parallelism=2,
        cuda_calls_per_second=1234.5,
    )


def profile_doc_json(profile):
    return json.dumps(_profile_doc(profile), sort_keys=True)


@pytest.fixture
def cache(tmp_path):
    return AppProfileCache(tmp_path / "profiles")


class TestKeying:
    def test_key_is_stable(self):
        cfg = LammpsProfileConfig()
        assert profile_key("lammps", cfg) == profile_key("lammps", cfg)

    def test_key_covers_every_config_field(self):
        base = LammpsProfileConfig()
        k0 = profile_key("lammps", base)
        for change in (
            {"seed": 2025},
            {"jitter": 0.11},
            {"processes": 4},
            {"neighbor_every": 13},
        ):
            assert profile_key(
                "lammps", dataclasses.replace(base, **change)
            ) != k0

    def test_key_covers_app_name_and_version(self):
        cfg = LammpsProfileConfig()
        assert profile_key("lammps", cfg) != profile_key("cosmoflow", cfg)
        assert profile_key("lammps", cfg) != profile_key(
            "lammps", cfg, version="other"
        )
        assert PROFILE_CACHE_VERSION in ("2026.08-5",) or PROFILE_CACHE_VERSION


class TestRoundTrip:
    def test_miss_then_hit_bit_exact(self, cache):
        cfg = LammpsProfileConfig()
        assert cache.get("lammps", cfg) is None
        original = small_profile()
        path = cache.put("lammps", cfg, original)
        assert path.exists()
        loaded = cache.get("lammps", cfg)
        assert loaded is not None
        assert loaded.name == original.name
        assert loaded.runtime_s == original.runtime_s
        assert loaded.queue_parallelism == original.queue_parallelism
        assert loaded.cuda_calls_per_second == original.cuda_calls_per_second
        # The trace round-trips bit for bit, in record order too.
        assert list(loaded.trace) == list(original.trace)
        assert (
            events_in_record_order(loaded.trace)
            == events_in_record_order(original.trace)
        )
        assert cache.hits == 1 and cache.misses == 1 and cache.writes == 1
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_scalar_trace_profiles_encode_too(self, cache):
        cfg = LammpsProfileConfig()
        events = [
            TraceEvent(EventKind.KERNEL, "k", 0.0, 1e-3),
            TraceEvent(EventKind.MEMCPY, "m", 2e-3, 3e-3, nbytes=64,
                       copy_kind=CopyKind.D2H),
        ]
        profile = dataclasses.replace(
            small_profile(), trace=Trace(events, name="scalar")
        )
        cache.put("lammps", cfg, profile)
        loaded = cache.get("lammps", cfg)
        assert list(loaded.trace) == events
        assert isinstance(loaded.trace, Trace)

    def test_corrupt_entry_is_a_miss(self, cache):
        cfg = LammpsProfileConfig()
        cache.put("lammps", cfg, small_profile())
        path = cache.path_for("lammps", cfg)
        clean = path.read_bytes()
        path.write_text("{not json")
        assert cache.get("lammps", cfg) is None
        assert cache.corrupt == 1 and cache.misses == 1
        # One flipped bit in the last float of the ``start`` column: the
        # zip CRC-32 rejects it instead of serving a wrong trace row.
        _, end = _member_spans(clean)[0]["start.npy"]
        damaged = bytearray(clean)
        damaged[end - 8] ^= 0x01
        path.write_bytes(bytes(damaged))
        assert cache.get("lammps", cfg) is None
        assert cache.corrupt == 2 and cache.misses == 2

    def test_truncated_doc_is_a_miss(self, cache):
        # An entry missing a required part — a column, a meta array or
        # a header key — is a miss, never a profile with holes.
        cfg = LammpsProfileConfig()
        cache.put("lammps", cfg, small_profile())
        path = cache.path_for("lammps", cfg)
        with np.load(path, allow_pickle=False) as entry:
            members = {name: entry[name] for name in entry.files}
        header = json.loads(members["header"].tobytes())
        for dropped in ("start", "meta_rows", "runtime_s", "names"):
            arrays = dict(members)
            if dropped in arrays:
                del arrays[dropped]
            else:
                partial = {k: v for k, v in header.items() if k != dropped}
                arrays["header"] = np.frombuffer(
                    json.dumps(partial).encode(), dtype=np.uint8
                )
            with path.open("wb") as fh:
                np.savez(fh, **arrays)
            corrupt = cache.corrupt
            assert cache.get("lammps", cfg) is None, dropped
            assert cache.corrupt == corrupt + 1

    def test_clear_and_len(self, cache):
        cfg = LammpsProfileConfig()
        cache.put("lammps", cfg, small_profile())
        cache.put("cosmoflow", cfg, small_profile("cf"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("lammps", cfg) is None

    def test_clear_removes_legacy_entries_and_orphaned_temps(self, cache):
        cfg = LammpsProfileConfig()
        path = cache.put("lammps", cfg, small_profile())
        legacy = path.with_suffix(".json")
        legacy.write_text("{}")  # an entry of the old JSON format
        orphan = path.with_name(f"{path.name}.4242-0.tmp")
        orphan.write_bytes(b"PK")  # a killed writer's temp file
        # Only live .npz entries count; the dead files are never read.
        assert len(cache) == 1
        assert cache.get("lammps", cfg) is not None
        assert cache.clear() == 3
        assert not legacy.exists() and not orphan.exists()
        assert list(cache.root.iterdir()) == []


def _member_spans(data):
    """Byte range of every zip member's stored bytes (npy header and
    data) — exactly what the member's CRC-32 covers."""
    spans = {}
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for info in archive.infolist():
            local = info.header_offset
            name_len = int.from_bytes(data[local + 26:local + 28], "little")
            extra_len = int.from_bytes(data[local + 28:local + 30], "little")
            start = local + 30 + name_len + extra_len
            spans[info.filename] = (start, start + info.compress_size)
        directory = archive.start_dir
    return spans, directory


@pytest.fixture(scope="module")
def inference_entry(tmp_path_factory):
    """A real quick ``inference`` profile: its entry bytes, config and
    canonical document."""
    ctx = ExperimentContext(cache_dir=tmp_path_factory.mktemp("clean"))
    profile = ctx.app_profile("inference")
    cfg = ctx.app_config("inference")
    path = ctx.profile_cache().path_for("inference", cfg)
    return path.read_bytes(), cfg, profile_doc_json(profile)


class TestCrashConsistency:
    """Damaged entries end as counted misses, never as different content."""

    def test_bit_flips_never_serve_different_content(
        self, inference_entry, tmp_path
    ):
        clean, cfg, clean_doc = inference_entry
        cache = AppProfileCache(tmp_path)
        path = cache.path_for("inference", cfg)
        path.parent.mkdir(parents=True)
        spans, directory = _member_spans(clean)
        rng = np.random.default_rng(2026)
        # Seeded flips in every member (header, columns, meta arrays),
        # in the zip directory, and anywhere in the file.
        positions = [
            int(rng.integers(lo, hi)) for lo, hi in spans.values()
            for _ in range(6)
        ]
        positions += [
            int(rng.integers(directory, len(clean))) for _ in range(60)
        ]
        positions += [int(rng.integers(0, len(clean))) for _ in range(60)]
        misses = 0
        for pos in positions:
            damaged = bytearray(clean)
            damaged[pos] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(damaged))
            got = cache.get("inference", cfg)
            if got is None:
                misses += 1
                continue
            # Zip fields the reader never uses (timestamps, version
            # fields, local copies of sizes) cannot change content.
            assert not any(lo <= pos < hi for lo, hi in spans.values()), pos
            assert_same_document(profile_doc_json(got), clean_doc, pos)
        assert cache.corrupt == cache.misses == misses
        assert misses >= len(spans) * 6

    @pytest.mark.parametrize("keep", [0, 3, 22, 100, 0.25, 0.5, 0.9, -22, -1])
    def test_truncation_is_a_counted_miss(
        self, inference_entry, tmp_path, keep
    ):
        clean, cfg, _ = inference_entry
        cache = AppProfileCache(tmp_path)
        path = cache.path_for("inference", cfg)
        path.parent.mkdir(parents=True)
        cut = int(len(clean) * keep) if isinstance(keep, float) else keep
        path.write_bytes(clean[:cut])
        with collecting() as reg:
            assert cache.get("inference", cfg) is None
            assert reg.counter("profilecache.invalidated").value == 1
        assert cache.corrupt == cache.misses == 1

    def test_damaged_entry_is_reprofiled_to_the_clean_result(
        self, inference_entry, tmp_path
    ):
        clean, cfg, clean_doc = inference_entry
        spans, _ = _member_spans(clean)
        lo, hi = spans["start.npy"]
        for damage in (
            clean[: len(clean) // 2],
            clean[:lo + (hi - lo) // 2]
            + bytes([clean[lo + (hi - lo) // 2] ^ 0x10])
            + clean[lo + (hi - lo) // 2 + 1:],
        ):
            root = tmp_path / str(len(damage))
            path = AppProfileCache(root / "profiles").path_for("inference", cfg)
            path.parent.mkdir(parents=True)
            path.write_bytes(damage)
            with collecting() as reg:
                again = ExperimentContext(cache_dir=root).app_profile("inference")
                assert reg.counter("profilecache.invalidated").value == 1
                assert reg.counter("profilecache.writes").value == 1
            assert_same_document(profile_doc_json(again), clean_doc)
            warm = ExperimentContext(cache_dir=root).app_profile("inference")
            assert_same_document(profile_doc_json(warm), clean_doc)
            assert path.read_bytes() == clean

    def test_killed_writers_temp_file_is_a_miss(self, inference_entry, tmp_path):
        clean, cfg, clean_doc = inference_entry
        cache = AppProfileCache(tmp_path / "profiles")
        path = cache.path_for("inference", cfg)
        path.parent.mkdir(parents=True)
        leftover = path.with_name(f"{path.name}.4242-0.tmp")
        leftover.write_bytes(clean[: len(clean) // 3])
        assert cache.get("inference", cfg) is None
        assert cache.misses == 1 and cache.corrupt == 0 and len(cache) == 0
        again = ExperimentContext(cache_dir=tmp_path).app_profile("inference")
        assert_same_document(profile_doc_json(again), clean_doc)
        loaded = cache.get("inference", cfg)
        assert_same_document(profile_doc_json(loaded), clean_doc)
        assert len(cache) == 1
        assert cache.clear() == 2 and not leftover.exists()


class TestConcurrentWrites:
    """put() survives racing writers of one entry, like the point cache."""

    def test_writer_finishing_inside_anothers_write(
        self, cache, monkeypatch
    ):
        # Writer B runs a whole put() while writer A is mid-write.
        cfg = LammpsProfileConfig()
        profile = small_profile()
        other = AppProfileCache(cache.root)
        real_savez = np.savez
        nested = []

        def interleaved(fh, **arrays):
            if not nested:
                nested.append(None)
                nested.append(other.put("lammps", cfg, profile))
            real_savez(fh, **arrays)

        monkeypatch.setattr(np, "savez", interleaved)
        path = cache.put("lammps", cfg, profile)  # must not raise
        assert nested == [None, path]
        assert cache.writes == other.writes == 1
        assert cache.write_races == other.write_races == 0
        assert list(cache.root.rglob("*.tmp")) == []
        loaded = cache.get("lammps", cfg)
        assert_same_document(profile_doc_json(loaded), profile_doc_json(profile))

    def test_lost_race_is_counted_not_raised(self, cache, monkeypatch):
        cfg = LammpsProfileConfig()

        def racing_replace(self, target):
            raise FileNotFoundError(target)  # temp renamed away mid-race

        monkeypatch.setattr(Path, "replace", racing_replace)
        with collecting() as reg:
            path = cache.put("lammps", cfg, small_profile())
            assert reg.counter("profilecache.write_races").value == 1
        assert cache.write_races == 1 and cache.writes == 0
        assert list(cache.root.rglob("*.tmp")) == []

        monkeypatch.undo()
        assert cache.put("lammps", cfg, small_profile()) == path
        assert cache.writes == 1 and cache.get("lammps", cfg) is not None


class TestMetrics:
    def test_lookup_accounting_published(self, cache):
        cfg = LammpsProfileConfig()
        with collecting() as reg:
            cache.get("lammps", cfg)  # miss
            cache.put("lammps", cfg, small_profile())
            cache.get("lammps", cfg)  # hit
            cache.path_for("lammps", cfg).write_text("junk")
            cache.get("lammps", cfg)  # corrupt -> invalidated + miss
            assert reg.counter("profilecache.misses").value == 2
            assert reg.counter("profilecache.hits").value == 1
            assert reg.counter("profilecache.writes").value == 1
            assert reg.counter("profilecache.invalidated").value == 1


class TestOneEncodingPerProfile:
    """A profile's cache entry does not depend on the engine that built it.

    Paper-app configs are built on the index core (the default) or on
    the reference DES (``fast_forward=False``). Both store the same
    bytes, here for jitter-free configs.
    """

    @pytest.mark.parametrize(
        "profile, config",
        [
            (
                profile_lammps,
                lambda: LammpsProfileConfig(
                    params=LJParams(40, steps=12 * 17 + 5), jitter=0.0
                ),
            ),
            (
                profile_cosmoflow,
                lambda: CosmoFlowProfileConfig(
                    epochs=2, train_samples=128, val_samples=64, jitter=0.0
                ),
            ),
        ],
        ids=["lammps", "cosmoflow"],
    )
    def test_fast_forward_des_and_core_store_the_same_bytes(
        self, profile, config
    ):
        des = profile(config(), fast_forward=False)
        with collecting() as reg:
            core = profile(config())
        assert reg.counter("appcore.runs").value == 1
        expected, got = _profile_arrays(des), _profile_arrays(core)
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key].dtype == expected[key].dtype, key
            assert got[key].tobytes() == expected[key].tobytes(), key
