"""Artifact round-trip tests (property-based) and corruption handling."""

import json
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.backends import ClassifierBackend, create_backend
from repro.ml.bagging import Bagging, REPTreeFactory
from repro.ml.mlp import MLPClassifier
from repro.serve.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    ModelArtifact,
    load_artifact,
    load_model,
    read_manifest,
    save_model,
)

#: Schema-v2 bundles written by the last v2 writer, plus their expected
#: ``predict_proba`` on a fixed ``X`` (``expected_proba.npz``).
V2_FIXTURES = Path(__file__).parent / "fixtures" / "v2"

BACKEND_FACTORIES = {
    "bagging": lambda: create_backend("bagging", n_estimators=3),
    "bagging-hard": lambda: create_backend("bagging", n_estimators=3, voting="hard"),
    "bagging-randomtree": lambda: create_backend(
        "bagging", n_estimators=3, base="randomtree"
    ),
    "randomforest": lambda: create_backend("randomforest", n_estimators=4),
    "knn": lambda: create_backend("knn", k=3),
    "logistic": lambda: create_backend("logistic", iterations=30),
    "mlp": lambda: create_backend(
        "mlp", hidden_layers=(4,), max_epochs=5, batch_size=32
    ),
}


def _fit(kind, seed, n, n_features):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = (X[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(float)
    backend = BACKEND_FACTORIES[kind]().fit(X, y, seed=seed)
    return backend, rng.normal(size=(64, n_features))


class TestRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(sorted(BACKEND_FACTORIES)),
        seed=st.integers(0, 10_000),
        n=st.integers(20, 120),
        n_features=st.integers(2, 9),
    )
    def test_predict_proba_survives_round_trip(self, kind, seed, n, n_features):
        backend, Xt = _fit(kind, seed, n, n_features)
        with tempfile.TemporaryDirectory() as tmp:
            save_model(backend, Path(tmp) / "m", meta={"seed": seed})
            restored = load_model(Path(tmp) / "m.json")
        assert type(restored) is type(backend)
        assert type(restored.model_) is type(backend.model_)
        assert np.array_equal(backend.predict_proba(Xt), restored.predict_proba(Xt))

    def test_round_trip_preserves_structure_and_meta(self, tmp_path):
        backend, _ = _fit("bagging", 3, 80, 5)
        meta = {"config": {"name": "Imp-11"}, "split_layer": 8}
        manifest = save_model(backend, tmp_path / "m", meta=meta)
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION == 3
        assert manifest["kind"] == "bagging"
        assert manifest["params"] == {
            "n_estimators": 3,
            "voting": "soft",
            "base": "reptree",
            "n_features": 5,
        }
        assert manifest["n_estimators"] == 3
        assert manifest["n_features"] == 5
        artifact = load_artifact(tmp_path / "m.json")
        assert artifact.meta == meta
        assert set(artifact.arrays) == {
            "feature", "threshold", "left", "right", "pos", "neg",
            "offsets", "priors",
        }
        restored = artifact.to_backend().model_
        assert restored.voting == "soft"
        assert isinstance(restored.base_factory, REPTreeFactory)
        assert len(restored.estimators_) == 3
        for original, loaded in zip(backend.model_.estimators_, restored.estimators_):
            assert original._prior == loaded._prior
            assert np.array_equal(original._tree.threshold, loaded._tree.threshold)

    def test_hard_voting_survives(self, tmp_path):
        backend, Xt = _fit("bagging-hard", 5, 60, 4)
        save_model(backend, tmp_path / "m")
        restored = load_model(tmp_path / "m.json")
        assert restored.model_.voting == "hard"
        assert np.array_equal(backend.predict_proba(Xt), restored.predict_proba(Xt))


class TestRejection:
    def _saved(self, tmp_path):
        backend, _ = _fit("bagging", 1, 50, 4)
        save_model(backend, tmp_path / "m")
        return tmp_path / "m.json", tmp_path / "m.npz"

    def test_corrupted_payload_is_rejected(self, tmp_path):
        json_path, npz_path = self._saved(tmp_path)
        payload = bytearray(npz_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(payload))
        with pytest.raises(ArtifactIntegrityError, match="checksum mismatch"):
            load_artifact(json_path)

    def test_swapped_payload_is_rejected(self, tmp_path):
        json_path, npz_path = self._saved(tmp_path)
        other, _ = _fit("bagging", 2, 50, 4)
        save_model(other, tmp_path / "other")
        npz_path.write_bytes((tmp_path / "other.npz").read_bytes())
        with pytest.raises(ArtifactIntegrityError):
            load_artifact(json_path)

    def test_wrong_schema_version_is_rejected(self, tmp_path):
        json_path, _ = self._saved(tmp_path)
        manifest = json.loads(json_path.read_text())
        manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactSchemaError, match="schema version"):
            read_manifest(json_path)
        with pytest.raises(ArtifactSchemaError):
            load_artifact(json_path)

    def test_missing_payload_is_rejected(self, tmp_path):
        json_path, npz_path = self._saved(tmp_path)
        npz_path.unlink()
        with pytest.raises(ArtifactError, match="payload missing"):
            load_artifact(json_path)

    def test_missing_or_garbled_manifest(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_manifest(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError):
            read_manifest(bad)

    def test_unfitted_model_cannot_be_packaged(self):
        with pytest.raises(ArtifactError, match="cannot package"):
            ModelArtifact.from_backend(create_backend("bagging", n_estimators=3))
        built = create_backend("bagging", n_estimators=3)
        built.model_ = built.build(0)
        with pytest.raises(ArtifactError, match="cannot package"):
            ModelArtifact.from_backend(built)

    def test_unsupported_model_type(self, tmp_path):
        class Stateless(ClassifierBackend):
            name = "stateless"

        with pytest.raises(ArtifactError, match="cannot package backend 'stateless'"):
            ModelArtifact.from_backend(Stateless())
        json_path, _ = self._saved(tmp_path)
        manifest = json.loads(json_path.read_text())
        manifest["kind"] = "weka"
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactSchemaError, match="weka"):
            load_model(json_path)


def _fit_mlp(seed=0, n=90, n_features=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = (X[:, 0] > 0).astype(float)
    backend = create_backend(
        "mlp", hidden_layers=(6, 4), max_epochs=6, batch_size=32
    ).fit(X, y, seed=seed)
    return backend, rng.normal(size=(64, n_features))


class TestMLPArtifacts:
    def test_manifest_fields(self, tmp_path):
        backend, _ = _fit_mlp()
        meta = {"config": {"name": "Imp-9+mlp"}, "split_layer": 6}
        manifest = save_model(backend, tmp_path / "m", meta=meta)
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert manifest["kind"] == "mlp"
        assert manifest["n_estimators"] == 1
        assert manifest["n_features"] == 5
        assert manifest["params"]["hidden_layers"] == [6, 4]
        assert manifest["meta"] == meta
        json.dumps(manifest)  # fully JSON-able

    def test_load_returns_mlp_artifact(self, tmp_path):
        backend, _ = _fit_mlp()
        save_model(backend, tmp_path / "m")
        artifact = load_artifact(tmp_path / "m.json")
        assert isinstance(artifact, ModelArtifact)
        assert artifact.kind == "mlp"
        assert artifact.n_estimators == 1
        assert set(artifact.arrays) >= {"mean", "std", "W0", "b0", "W1", "b1"}

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 120),
        n_features=st.integers(2, 9),
        hidden=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    )
    def test_round_trip_is_bit_identical(self, seed, n, n_features, hidden):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n_features))
        y = (X[:, 0] > 0).astype(float)
        backend = create_backend(
            "mlp", hidden_layers=tuple(hidden), max_epochs=4, batch_size=16
        ).fit(X, y, seed=seed)
        Xt = rng.normal(size=(48, n_features))
        with tempfile.TemporaryDirectory() as tmp:
            save_model(backend, Path(tmp) / "m", meta={"seed": seed})
            restored = load_model(Path(tmp) / "m.json")
        assert type(restored.model_) is MLPClassifier
        assert np.array_equal(backend.predict_proba(Xt), restored.predict_proba(Xt))

    def test_corrupted_mlp_payload_is_rejected(self, tmp_path):
        backend, _ = _fit_mlp()
        save_model(backend, tmp_path / "m")
        npz_path = tmp_path / "m.npz"
        payload = bytearray(npz_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        npz_path.write_bytes(bytes(payload))
        with pytest.raises(ArtifactIntegrityError, match="checksum mismatch"):
            load_artifact(tmp_path / "m.json")

    def test_missing_weight_array_is_schema_error(self, tmp_path):
        backend, _ = _fit_mlp()
        artifact = ModelArtifact.from_backend(backend)
        del artifact.arrays["W0"]
        with pytest.raises(ArtifactSchemaError, match="mlp"):
            artifact.to_backend()

    def test_backend_wrapper_unwraps_to_mlp_artifact(self):
        backend, Xt = _fit_mlp(seed=4)
        artifact = ModelArtifact.from_backend(backend, meta={"via": "backend"})
        arrays, params = backend.to_state()
        assert artifact.kind == "mlp"
        assert artifact.params == params
        assert set(artifact.arrays) == set(arrays)
        np.testing.assert_array_equal(
            backend.predict_proba(Xt), artifact.to_backend().predict_proba(Xt)
        )


def _v2_fixture(name, tmp_path, version=2):
    """Copy a committed v2 bundle into ``tmp_path``, relabelled as
    ``version``; returns the manifest path."""
    for suffix in (".json", ".npz"):
        shutil.copy(V2_FIXTURES / f"{name}{suffix}", tmp_path / f"{name}{suffix}")
    json_path = tmp_path / f"{name}.json"
    manifest = json.loads(json_path.read_text())
    assert manifest["schema_version"] == 2
    manifest["schema_version"] = version
    json_path.write_text(json.dumps(manifest))
    return json_path


class TestBackwardCompat:
    """v1/v2 ensemble and v2 mlp bundles load and score bit-identically."""

    @pytest.fixture(scope="class")
    def expected(self):
        with np.load(V2_FIXTURES / "expected_proba.npz") as stored:
            return {key: stored[key] for key in stored.files}

    def test_supported_versions(self):
        assert SUPPORTED_SCHEMA_VERSIONS == (1, 2, 3)
        assert ARTIFACT_SCHEMA_VERSION in SUPPORTED_SCHEMA_VERSIONS

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("bagging", "bagging"),
            ("bagging_randomtree_hard", "bagging"),
            ("randomforest", "randomforest"),
            ("mlp", "mlp"),
        ],
    )
    def test_v2_bundle_loads_bit_identically(self, name, kind, expected):
        manifest = read_manifest(V2_FIXTURES / f"{name}.json")
        assert manifest["schema_version"] == 2
        assert manifest["params"]["n_features"] == 5
        backend = load_model(V2_FIXTURES / f"{name}.json")
        assert backend.name == kind
        assert np.array_equal(backend.predict_proba(expected["X"]), expected[name])
        # A restored model ships to pool workers, so it must pickle.
        shipped = pickle.loads(pickle.dumps(backend.model_))
        assert np.array_equal(shipped.predict_proba(expected["X"]), expected[name])

    def test_v2_params_come_from_the_old_fields(self):
        assert read_manifest(V2_FIXTURES / "bagging_randomtree_hard.json")[
            "params"
        ] == {"n_estimators": 3, "voting": "hard", "base": "randomtree", "n_features": 5}
        assert read_manifest(V2_FIXTURES / "randomforest.json")["params"] == {
            "n_estimators": 4,
            "max_depth": 6,
            "min_samples_leaf": 1,
            "n_features": 5,
        }

    @pytest.mark.parametrize(
        "kind", ["bagging", "bagging_randomtree_hard", "randomforest"]
    )
    def test_v1_tree_artifact_loads_bit_identically(self, kind, expected, tmp_path):
        json_path = _v2_fixture(kind, tmp_path, version=1)
        assert read_manifest(json_path)["schema_version"] == 1  # v1 accepted
        restored = load_model(json_path)
        assert isinstance(restored.model_, Bagging)
        assert np.array_equal(restored.predict_proba(expected["X"]), expected[kind])

    @pytest.mark.parametrize("version", [1, 2])
    def test_single_tree_bundles_are_rejected(self, version, tmp_path):
        json_path = _v2_fixture("reptree", tmp_path, version=version)
        with pytest.raises(ArtifactSchemaError, match="'reptree'"):
            read_manifest(json_path)
        with pytest.raises(ArtifactSchemaError):
            load_artifact(json_path)
        manifest = json.loads(json_path.read_text())
        manifest["kind"] = "randomtree"
        json_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactSchemaError, match="'randomtree'"):
            load_artifact(json_path)

    def test_v1_manifest_cannot_claim_mlp(self, tmp_path):
        json_path = _v2_fixture("mlp", tmp_path, version=1)
        with pytest.raises(ArtifactSchemaError, match="version 1 'mlp'"):
            read_manifest(json_path)
        with pytest.raises(ArtifactSchemaError):
            load_artifact(json_path)
