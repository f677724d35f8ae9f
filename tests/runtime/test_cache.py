"""Tests for the on-disk feature cache (repro.runtime.cache)."""

import dataclasses

import numpy as np
import pytest

from repro.obs import get_registry
from repro.runtime import (
    FeatureCache,
    code_fingerprint,
    default_cache_dir,
    flush_cache_stats,
    get_default_cache,
    hash_key,
    set_default_cache,
    view_content_hash,
)
from repro.runtime import cache as cache_module
from repro.runtime.cache import (
    CACHE_COUNTERS,
    ENV_CACHE_DIR,
    QUARANTINE_DIR,
    STATS_FILE,
)
from repro.runtime.faults import ENV_FAULT_PLAN


class TestHashKey:
    def test_deterministic(self):
        key = hash_key("a", 1, 2.5, None, True, np.arange(4))
        assert key == hash_key("a", 1, 2.5, None, True, np.arange(4))

    def test_type_sensitive(self):
        """1, 1.0, "1" and True must not collide."""
        keys = {hash_key(1), hash_key(1.0), hash_key("1"), hash_key(True)}
        assert len(keys) == 4

    def test_array_content_and_shape(self):
        flat = np.arange(6, dtype=float)
        assert hash_key(flat) != hash_key(flat.reshape(2, 3))
        changed = flat.copy()
        changed[0] = 99.0
        assert hash_key(flat) != hash_key(changed)

    def test_nesting_unambiguous(self):
        assert hash_key(["a", "b"], "c") != hash_key(["a"], ["b", "c"])

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            hash_key(object())


class TestCodeFingerprint:
    def test_stable_and_short(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    @pytest.mark.parametrize(
        "module",
        [
            "repro.attack.framework",
            "repro.ml.bagging",
            "repro.ml.forest",
            "repro.ml.knn",
            "repro.ml.logistic",
            "repro.ml.tree",
            "repro.ml.backends",
            "repro.splitmfg.sampling",
        ],
    )
    def test_source_edit_changes_fingerprint(self, monkeypatch, module):
        """Every module a cached model depends on is hashed."""
        import importlib
        import inspect

        before = code_fingerprint()
        edited = importlib.import_module(module)
        getsource = inspect.getsource
        monkeypatch.setattr(
            inspect,
            "getsource",
            lambda obj: getsource(obj) + ("# edit\n" if obj is edited else ""),
        )
        monkeypatch.setattr(cache_module, "_fingerprint", None)
        assert code_fingerprint() != before
        monkeypatch.undo()
        assert code_fingerprint() == before


class TestViewContentHash:
    def test_stable_and_memoized(self, view8):
        first = view_content_hash(view8)
        assert view_content_hash(view8) == first
        assert view8._content_hash == first

    def test_differs_across_designs(self, views8):
        hashes = {view_content_hash(v) for v in views8}
        assert len(hashes) == len(views8)

    def test_geometry_change_changes_hash(self, view8):
        changed = dataclasses.replace(view8, die_width=view8.die_width + 1.0)
        assert view_content_hash(changed) != view_content_hash(view8)

    def test_invalidate_cache_drops_memo(self, view8):
        view_content_hash(view8)
        view8.invalidate_cache()
        assert view8._content_hash is None
        view_content_hash(view8)  # recomputes fine


class TestFeatureCache:
    def test_round_trip(self, tmp_path):
        cache = FeatureCache(tmp_path)
        arrays = {"X": np.random.default_rng(0).normal(size=(5, 3)), "i": np.arange(5)}
        assert cache.get("k") is None
        assert cache.put("k", arrays)
        loaded = cache.get("k")
        assert set(loaded) == {"X", "i"}
        np.testing.assert_array_equal(loaded["X"], arrays["X"])
        np.testing.assert_array_equal(loaded["i"], arrays["i"])
        assert cache.hits == 1 and cache.misses == 1

    def test_empty_arrays_round_trip(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("e", {"X": np.zeros((0, 9))})
        assert cache.get("e")["X"].shape == (0, 9)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("k", {"X": np.ones(3)})
        cache._path("k").write_bytes(b"not an npz")
        assert cache.get("k") is None

    def test_entries_and_clear(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("a", {"X": np.ones(2)})
        cache.put("b", {"X": np.ones(2)})
        assert len(cache) == 2
        assert cache.total_bytes() > 0
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_oversized_entry_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.runtime.cache.MAX_ENTRY_BYTES", 8)
        cache = FeatureCache(tmp_path)
        assert not cache.put("big", {"X": np.ones(100)})
        assert len(cache) == 0

    def test_missing_directory_is_empty(self, tmp_path):
        cache = FeatureCache(tmp_path / "never-created")
        assert cache.entries() == []
        assert cache.get("k") is None


class TestCorruptionSelfHeal:
    """Torn/corrupt files are quarantined, counted, and treated as misses."""

    @pytest.fixture(autouse=True)
    def _fresh_counters(self, monkeypatch):
        get_registry().reset()
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        yield
        get_registry().reset()

    def test_corrupt_entry_quarantined_and_recoverable(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("k", {"X": np.ones(3)})
        cache._path("k").write_bytes(b"not an npz")
        assert cache.get("k") is None  # miss, not an exception
        assert cache.corrupt_entries == 1
        assert len(cache) == 0  # gone from the entry namespace
        quarantined = list((tmp_path / QUARANTINE_DIR).iterdir())
        assert [p.name for p in quarantined] == ["k.npz"]
        # The key is usable again immediately: recompute, put, hit.
        assert cache.put("k", {"X": np.ones(3)})
        assert cache.get("k") is not None

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("k", {"X": np.ones(64)})
        path = cache._path("k")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert cache.get("k") is None
        assert cache.corrupt_entries == 1
        counters = get_registry().snapshot()["counters"]
        assert counters["cache_corrupt_entries"] == 1

    def test_quarantined_entries_leave_stats_sane(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("k", {"X": np.ones(3)})
        cache._path("k").write_bytes(b"garbage")
        cache.get("k")
        assert cache.stats()["corrupt_entries"] == 1
        assert cache.total_bytes() >= 0  # quarantine dir not globbed

    def test_torn_write_fault_publishes_healable_entry(
        self, tmp_path, monkeypatch
    ):
        import json as json_module

        monkeypatch.setenv(
            ENV_FAULT_PLAN,
            json_module.dumps(
                {"faults": [{"op": "torn_write", "key_substring": "victim"}]}
            ),
        )
        cache = FeatureCache(tmp_path)
        assert cache.put("victim", {"X": np.ones(64)})  # torn mid-write
        assert cache.get("victim") is None  # heals: quarantine + miss
        assert cache.corrupt_entries == 1
        assert (tmp_path / QUARANTINE_DIR / "victim.npz").exists()
        monkeypatch.delenv(ENV_FAULT_PLAN)
        assert cache.put("victim", {"X": np.ones(64)})
        assert cache.get("victim") is not None

    def test_corrupt_sidecar_self_heals(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "_flush_baseline", {})
        cache = FeatureCache(tmp_path)
        cache.put("k", {"X": np.ones(2)})
        flush_cache_stats(cache)
        (tmp_path / STATS_FILE).write_text("{torn")
        totals = cache.persisted_stats()  # zeros, not an exception
        assert totals["puts"] == 0
        assert (tmp_path / QUARANTINE_DIR / STATS_FILE).exists()
        counters = get_registry().snapshot()["counters"]
        assert counters["cache_corrupt_entries"] == 1
        flush_cache_stats(cache)  # a fresh sidecar can be written again
        assert cache.persisted_stats()["puts"] >= 0


class TestCacheStats:
    """Counters, ``stats()`` documents, and the sidecar lifetime file."""

    @pytest.fixture(autouse=True)
    def _fresh_counters(self, monkeypatch):
        get_registry().reset()
        monkeypatch.setattr(cache_module, "_flush_baseline", {})
        yield
        get_registry().reset()

    def test_put_get_clear_counters(self, tmp_path):
        cache = FeatureCache(tmp_path)
        arrays = {"X": np.ones(4)}
        cache.put("a", arrays)
        cache.put("b", arrays)
        cache.get("a")
        cache.get("gone")
        cache.clear()
        assert cache.puts == 2
        assert cache.hits == 1 and cache.misses == 1
        assert cache.evicted == 2
        assert cache.put_bytes == 2 * arrays["X"].nbytes
        assert cache.hit_bytes == arrays["X"].nbytes

    def test_counters_mirrored_into_registry(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("a", {"X": np.ones(2)})
        cache.get("a")
        counters = get_registry().snapshot()["counters"]
        assert counters["cache_puts"] == 1
        assert counters["cache_hits"] == 1
        assert counters["cache_put_bytes"] > 0

    def test_rejected_put_counts(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.runtime.cache.MAX_ENTRY_BYTES", 8)
        cache = FeatureCache(tmp_path)
        cache.put("big", {"X": np.ones(100)})
        assert cache.put_rejected == 1
        counters = get_registry().snapshot()["counters"]
        assert counters["cache_put_rejected"] == 1

    def test_stats_document(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("a", {"X": np.ones(3)})
        cache.get("a")
        stats = cache.stats()
        assert stats["dir"] == str(tmp_path)
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["hits"] == 1 and stats["puts"] == 1
        assert set(CACHE_COUNTERS) <= set(stats)

    def test_flush_writes_sidecar_once(self, tmp_path):
        cache = FeatureCache(tmp_path)
        cache.put("a", {"X": np.ones(3)})
        cache.get("a")
        totals = flush_cache_stats(cache)
        assert totals["hits"] == 1 and totals["puts"] == 1
        assert (tmp_path / STATS_FILE).exists()
        # A second flush with no new activity must not double-count.
        again = flush_cache_stats(cache)
        assert again == totals
        assert cache.persisted_stats() == totals

    def test_flush_accumulates_across_processes(self, tmp_path):
        """Simulate a later CLI run folding into the same sidecar."""
        cache = FeatureCache(tmp_path)
        cache.get("missing")
        flush_cache_stats(cache)
        # "New process": fresh registry and baseline, same cache root.
        get_registry().reset()
        cache_module._flush_baseline.clear()
        second = FeatureCache(tmp_path)
        second.get("still-missing")
        totals = flush_cache_stats(second)
        assert totals["misses"] == 2

    def test_persisted_stats_tolerates_garbage(self, tmp_path):
        (tmp_path / STATS_FILE).write_text("not json")
        cache = FeatureCache(tmp_path)
        assert cache.persisted_stats() == {n: 0 for n in CACHE_COUNTERS}


class TestDefaults:
    def test_env_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_set_default_cache_accepts_paths(self, tmp_path):
        set_default_cache(tmp_path)
        installed = get_default_cache()
        assert isinstance(installed, FeatureCache)
        assert installed.root == tmp_path
        set_default_cache(None)
        assert get_default_cache() is None
