"""Tests for the directory-backed model registry."""

import numpy as np
import pytest

from repro.ml.backends import create_backend
from repro.serve.artifacts import ModelArtifact
from repro.serve.registry import ModelNotFoundError, ModelRegistry, _sanitize_name


def _artifact(seed=0, meta=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(float)
    backend = create_backend("bagging", n_estimators=2).fit(X, y, seed=seed)
    return ModelArtifact.from_backend(backend, meta=meta)


class TestVersioning:
    def test_versions_increment_per_name(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        first = registry.save(_artifact(0), name="imp-11")
        second = registry.save(_artifact(1), name="imp-11")
        other = registry.save(_artifact(2), name="other")
        assert first.model_id == "imp-11-v0001"
        assert second.model_id == "imp-11-v0002"
        assert other.model_id == "other-v0001"
        assert [e.model_id for e in registry.list("imp-11")] == [
            "imp-11-v0001",
            "imp-11-v0002",
        ]
        assert len(registry.list()) == 3

    def test_name_defaults_to_config_then_kind(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        named = registry.save(_artifact(0, meta={"config": {"name": "Imp-11"}}))
        assert named.name == "imp-11"
        bare = registry.save(_artifact(1))
        assert bare.name == "bagging"

    def test_name_sanitization(self, tmp_path):
        assert _sanitize_name("Imp/11 (soft)") == "imp-11-soft"
        with pytest.raises(ValueError):
            _sanitize_name("///")
        entry = ModelRegistry(tmp_path).save(_artifact(0), name="A B/C")
        assert entry.model_id == "a-b-c-v0001"


class TestResolution:
    def test_latest_by_name_and_overall(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(_artifact(0), name="a")
        registry.save(_artifact(1), name="a")
        registry.save(_artifact(2), name="b")
        assert registry.latest("a").model_id == "a-v0002"
        assert registry.latest().model_id is not None
        assert registry.latest("missing") is None

    def test_resolve_exact_name_and_default(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(_artifact(0), name="a")
        registry.save(_artifact(1), name="a")
        assert registry.resolve("a-v0001").version == 1
        assert registry.resolve("a").version == 2
        assert registry.resolve(None).version == 2
        with pytest.raises(ModelNotFoundError):
            registry.resolve("nope")

    def test_empty_registry(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.list() == []
        with pytest.raises(ModelNotFoundError, match="empty"):
            registry.resolve(None)

    def test_missing_directory_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ModelRegistry(tmp_path / "nope", create=False)


class TestLoad:
    def test_load_round_trips(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        original = _artifact(0, meta={"split_layer": 8})
        saved = registry.save(original, name="m")
        entry, artifact = registry.load("m")
        assert entry.model_id == saved.model_id
        assert artifact.meta["split_layer"] == 8
        assert np.array_equal(
            artifact.arrays["threshold"], original.arrays["threshold"]
        )

    def test_unreadable_manifests_are_skipped(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(_artifact(0), name="m")
        (tmp_path / "junk-v0001.json").write_text("{broken")
        (tmp_path / "noversion.json").write_text("{}")
        assert [e.model_id for e in registry.list()] == ["m-v0001"]


class TestWriteOnce:
    def test_stale_latest_never_overwrites_an_id(self, tmp_path, monkeypatch):
        """Two saves that both see an empty name get distinct versions."""
        registry = ModelRegistry(tmp_path)
        first = registry.save(_artifact(0), name="m")
        payload = (tmp_path / "m-v0001.npz").read_bytes()
        manifest = (tmp_path / "m-v0001.json").read_bytes()
        # A concurrent saver scanned before the first save landed.
        monkeypatch.setattr(registry, "latest", lambda name=None: None)
        second = registry.save(_artifact(1), name="m")
        assert first.model_id == "m-v0001"
        assert second.model_id == "m-v0002"
        assert (tmp_path / "m-v0001.npz").read_bytes() == payload
        assert (tmp_path / "m-v0001.json").read_bytes() == manifest
        # Each manifest was published by a rename; no temp file is left.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m-v0001.json",
            "m-v0001.npz",
            "m-v0002.json",
            "m-v0002.npz",
        ]

    def test_empty_claim_is_skipped_by_scans(self, tmp_path):
        """A claimed id whose manifest is not yet published is invisible."""
        registry = ModelRegistry(tmp_path)
        (tmp_path / "m-v0001.json").touch()
        assert registry.list() == []
        assert registry.save(_artifact(0), name="m").model_id == "m-v0002"
