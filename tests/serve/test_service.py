"""Tests for AttackService: packaging, restoring and scoring challenges."""

import numpy as np
import pytest

from repro.attack.config import CONFIGS_BY_NAME
from repro.attack.framework import evaluate_attack, make_backend, train_attack
from repro.ml.backends import list_backends
from repro.serve.artifacts import ArtifactError, ModelArtifact
from repro.serve import service as service_module
from repro.serve.registry import ModelNotFoundError, ModelRegistry
from repro.serve.service import (
    AttackService,
    package_trained_attack,
    restore_trained_attack,
    train_model,
)
from repro.splitmfg.challenge import challenge_to_dict
from tests.ml.test_backends import SMALL_PARAMS

CONFIG = CONFIGS_BY_NAME["Imp-11"]


@pytest.fixture(scope="module")
def trained(views6):
    """One attack trained on the whole small suite at layer 6."""
    return train_attack(CONFIG, list(views6), seed=0)


@pytest.fixture(scope="module")
def artifact(trained, views6):
    return package_trained_attack(trained, views6)


@pytest.fixture()
def service(artifact, tmp_path):
    registry = ModelRegistry(tmp_path)
    registry.save(artifact, name="imp-11")
    return AttackService(registry)


class TestPackaging:
    def test_metadata_captures_the_attack(self, artifact, views6):
        meta = artifact.meta
        assert meta["config"]["name"] == CONFIG.name
        assert meta["config"]["n_features"] == CONFIG.n_features
        assert meta["training_designs"] == [v.design_name for v in views6]
        assert meta["split_layers"] == [6]
        assert meta["split_layer"] == 6
        assert meta["n_training_samples"] > 0

    def test_restore_rebuilds_an_equivalent_attack(self, trained, artifact, views6):
        restored = restore_trained_attack(artifact)
        assert restored.config == trained.config
        assert restored.neighborhood == trained.neighborhood
        assert restored.limit_axis == trained.limit_axis
        direct = evaluate_attack(trained, views6[0])
        served = evaluate_attack(restored, views6[0])
        assert np.array_equal(direct.prob, served.prob)
        assert np.array_equal(direct.pair_i, served.pair_i)

    def test_restore_requires_config_metadata(self, trained):
        backend = make_backend(trained.config)
        backend.model_ = trained.model
        bare = ModelArtifact.from_backend(backend)
        with pytest.raises(ArtifactError, match="configuration metadata"):
            restore_trained_attack(bare)

    def test_train_model_records_designs(self, views6):
        produced = train_model(CONFIG, views6[:1], seed=0)
        assert produced.meta["training_designs"] == [views6[0].design_name]


class TestPredict:
    def test_threshold_response_matches_direct_evaluation(
        self, service, trained, views6
    ):
        view = views6[0]
        response = service.predict(challenge_to_dict(view), threshold=0.5)
        assert response["model_id"] == "imp-11-v0001"
        assert response["config"] == CONFIG.name
        assert response["design"] == view.design_name
        assert response["split_layer"] == 6
        assert response["n_vpins"] == len(view)
        direct = evaluate_attack(trained, view)
        assert response["n_pairs_evaluated"] == direct.n_pairs_evaluated
        kept = int((direct.prob >= 0.5).sum())
        listed = sum(len(d["candidates"]) for d in response["locs"])
        assert listed == 2 * kept  # every kept pair enters both endpoints' LoCs
        assert response["mean_loc_size"] == pytest.approx(
            2.0 * kept / len(view) if len(view) else 0.0
        )

    def test_top_k_limits_candidates(self, service, views6):
        response = service.predict(challenge_to_dict(views6[0]), top_k=2)
        assert response["top_k"] == 2
        assert response["threshold"] is None
        for doc in response["locs"]:
            assert 1 <= len(doc["candidates"]) <= 2
            probs = [c["prob"] for c in doc["candidates"]]
            assert probs == sorted(probs, reverse=True)

    def test_model_resolution_and_errors(self, service, views6):
        public = challenge_to_dict(views6[0])
        by_name = service.predict(public, model_id="imp-11")
        by_default = service.predict(public)
        assert by_name["model_id"] == by_default["model_id"] == "imp-11-v0001"
        with pytest.raises(ModelNotFoundError):
            service.predict(public, model_id="ghost")
        with pytest.raises(ValueError):
            service.predict(public, top_k=0)

    def test_bad_challenge_rejected(self, service):
        with pytest.raises((KeyError, TypeError, ValueError)):
            service.predict({"not": "a challenge"})

    def test_garbage_parameters_rejected(self, service, views6):
        public = challenge_to_dict(views6[0])
        with pytest.raises(ValueError, match="threshold"):
            service.predict(public, threshold=float("nan"))
        with pytest.raises(ValueError, match="threshold"):
            service.predict(public, threshold=2.0)
        with pytest.raises(ValueError, match="threshold"):
            service.predict(public, threshold=-0.5)
        with pytest.raises(TypeError, match="model"):
            service.predict(public, model_id=123)

    def test_models_listing_and_cache(self, service, views6):
        listing = service.models()
        assert [m["model_id"] for m in listing] == ["imp-11-v0001"]
        public = challenge_to_dict(views6[0])
        service.predict(public)
        first = service._cache["imp-11-v0001"]
        service.predict(public)
        assert service._cache["imp-11-v0001"] is first  # reused, not reloaded

    def test_cache_eviction(self, artifact, tmp_path, monkeypatch):
        monkeypatch.setattr(service_module, "MODEL_CACHE_SIZE", 2)
        registry = ModelRegistry(tmp_path)
        for _ in range(3):
            registry.save(artifact, name="m")
        service = AttackService(registry)
        for version in (1, 2, 3):
            service._load(f"m-v{version:04d}")
        assert len(service._cache) == 2
        assert "m-v0001" not in service._cache


@pytest.mark.parametrize("backend", list_backends())
def test_every_backend_is_served_bit_identically(backend, views6, tmp_path):
    """train_model -> registry -> AttackService scores exactly what the
    in-memory attack scores, for every registered backend."""
    config = CONFIG.with_backend(backend, **SMALL_PARAMS[backend])
    registry = ModelRegistry(tmp_path)
    entry = registry.save(train_model(config, views6[1:], seed=0))
    assert entry.kind == backend
    view = views6[0]
    response = AttackService(registry).predict(
        challenge_to_dict(view), model_id=entry.model_id, threshold=0.0
    )
    served = {
        (min(doc["vpin"], c["partner"]), max(doc["vpin"], c["partner"])): c["prob"]
        for doc in response["locs"]
        for c in doc["candidates"]
    }
    direct = evaluate_attack(train_attack(config, views6[1:], seed=0), view)
    expected = {
        (int(i), int(j)): float(p)
        for i, j, p in zip(direct.pair_i, direct.pair_j, direct.prob)
    }
    assert response["n_pairs_evaluated"] == direct.n_pairs_evaluated
    assert served == expected
