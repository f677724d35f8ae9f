"""Tests for the attack training/evaluation driver."""

import numpy as np
import pytest

from repro.attack.config import IMP_9, IMP_9Y, ML_9, AttackConfig
from repro.attack.framework import (
    evaluate_attack,
    loo_folds,
    make_classifier,
    run_loo,
    train_attack,
)
from repro.ml import backends
from repro.ml.bagging import Bagging
from repro.runtime import FeatureCache
from repro.splitmfg.pair_features import legal_pair_mask


class TestMakeClassifier:
    def test_reptree_default(self):
        model = make_classifier(IMP_9, seed=0)
        assert model.n_estimators == 10

    def test_randomtree_variant(self):
        from dataclasses import replace

        config = replace(ML_9, base_classifier="randomtree", n_estimators=25)
        model = make_classifier(config, seed=0)
        assert model.n_estimators == 25


class TestTrainAttack:
    def test_ml_has_no_neighborhood(self, views8):
        trained = train_attack(ML_9, views8, seed=0)
        assert trained.neighborhood is None
        assert trained.limit_axis is None
        assert trained.n_training_samples > 0

    def test_imp_has_neighborhood(self, views8):
        trained = train_attack(IMP_9, views8, seed=0)
        assert trained.neighborhood is not None
        assert 0 < trained.neighborhood < 1

    def test_y_config_resolves_axis(self, views8):
        trained = train_attack(IMP_9Y, views8, seed=0)
        assert trained.limit_axis == "y"

    def test_y_config_rejected_below_top_layer(self, views6):
        with pytest.raises(ValueError):
            train_attack(IMP_9Y, views6, seed=0)

    def test_needs_views(self):
        with pytest.raises(ValueError):
            train_attack(ML_9, [], seed=0)


#: One configuration per registered backend (the bagging one twice:
#: REPTree and RandomTree bases), kept small so each fit is quick.
MODEL_CONFIGS = [
    IMP_9,
    AttackConfig(name="Imp-9-rt", scalable=True, base_classifier="randomtree"),
    IMP_9.with_backend("randomforest", n_estimators=5),
    IMP_9.with_backend("knn"),
    IMP_9.with_backend("logistic"),
    IMP_9.with_backend("mlp", hidden_layers=(8,), max_epochs=5, batch_size=64),
]


def _probe_matrix(config):
    return np.random.default_rng(0).normal(0.0, 50.0, (300, len(config.features)))


def _model_entries(cache):
    """Cache entries holding a fitted model (they carry ``params``)."""
    paths = []
    for path in cache.entries():
        with np.load(path) as data:
            if "params" in data.files:
                paths.append(path)
    return paths


class _StatelessBackend(backends.ClassifierBackend):
    """A backend without ``to_state`` (the base class raises)."""

    name = "stateless"

    def build(self, seed=0):
        return Bagging(n_estimators=2, seed=seed)

    def get_params(self):
        return {}


class TestModelCache:
    """Fitted models are feature-cache entries, restored bit-identically."""

    @pytest.mark.parametrize("config", MODEL_CONFIGS, ids=lambda c: c.name)
    def test_warm_equals_cold(self, views8, tmp_path, config):
        cache = FeatureCache(tmp_path)
        cold = train_attack(config, views8[1:], seed=4, cache=cache)
        assert len(_model_entries(cache)) == 1
        warm = train_attack(config, views8[1:], seed=4, cache=cache)
        assert type(warm.model) is type(cold.model)
        X = _probe_matrix(config)
        np.testing.assert_array_equal(
            warm.model.predict_proba(X), cold.model.predict_proba(X)
        )
        assert warm.n_training_samples == cold.n_training_samples
        assert warm.train_time == cold.train_time
        assert (warm.neighborhood, warm.limit_axis) == (
            cold.neighborhood,
            cold.limit_axis,
        )

    def test_key_covers_seed_and_config(self, views8, tmp_path):
        cache = FeatureCache(tmp_path)
        train_attack(IMP_9, views8[1:], seed=4, cache=cache)
        train_attack(IMP_9, views8[1:], seed=5, cache=cache)
        train_attack(
            IMP_9.with_backend("bagging", n_estimators=3),
            views8[1:],
            seed=4,
            cache=cache,
        )
        assert len(_model_entries(cache)) == 3

    def test_no_cache_fits_every_time(self, views8, monkeypatch):
        fits = []
        fit = Bagging.fit
        monkeypatch.setattr(
            Bagging, "fit", lambda self, X, y: fits.append(1) or fit(self, X, y)
        )
        first = train_attack(IMP_9, views8[1:], seed=4)
        second = train_attack(IMP_9, views8[1:], seed=4)
        assert len(fits) == 2
        X = _probe_matrix(IMP_9)
        np.testing.assert_array_equal(
            first.model.predict_proba(X), second.model.predict_proba(X)
        )

    def test_backend_without_state_stores_nothing(
        self, views8, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(backends._REGISTRY, "stateless", _StatelessBackend)
        config = IMP_9.with_backend("stateless")
        cache = FeatureCache(tmp_path)
        fits = []
        fit = Bagging.fit
        monkeypatch.setattr(
            Bagging, "fit", lambda self, X, y: fits.append(1) or fit(self, X, y)
        )
        first = train_attack(config, views8[1:], seed=4, cache=cache)
        second = train_attack(config, views8[1:], seed=4, cache=cache)
        assert len(fits) == 2
        assert _model_entries(cache) == []
        X = _probe_matrix(config)
        np.testing.assert_array_equal(
            first.model.predict_proba(X), second.model.predict_proba(X)
        )

    @pytest.mark.parametrize("damage", ["torn", "garbled"])
    def test_damaged_entry_is_quarantined_and_refit(
        self, views8, tmp_path, damage
    ):
        cache = FeatureCache(tmp_path)
        cold = train_attack(IMP_9, views8[1:], seed=4, cache=cache)
        (path,) = _model_entries(cache)
        data = path.read_bytes()
        if damage == "torn":
            path.write_bytes(data[: len(data) // 2])
        else:
            path.write_bytes(data[:100] + bytes(len(data) - 200) + data[-100:])
        refit = train_attack(IMP_9, views8[1:], seed=4, cache=cache)
        assert cache.corrupt_entries == 1
        assert (tmp_path / "quarantine" / path.name).exists()
        X = _probe_matrix(IMP_9)
        np.testing.assert_array_equal(
            refit.model.predict_proba(X), cold.model.predict_proba(X)
        )
        assert _model_entries(cache) == [path]


class TestEvaluateAttack:
    def test_ml_evaluates_all_legal_pairs(self, views8):
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        result = evaluate_attack(trained, view)
        n = len(view)
        i, j = np.triu_indices(n, k=1)
        n_legal = int(legal_pair_mask(view, i, j).sum())
        assert result.n_pairs_evaluated == n_legal
        assert len(result.prob) == n_legal
        assert result.saturation_accuracy() == 1.0

    def test_imp_evaluates_fewer_pairs(self, views8):
        ml = train_attack(ML_9, views8[1:], seed=0)
        imp = train_attack(IMP_9, views8[1:], seed=0)
        view = views8[0]
        assert (
            evaluate_attack(imp, view).n_pairs_evaluated
            < evaluate_attack(ml, view).n_pairs_evaluated
        )

    def test_y_limit_prunes_pairs_and_keeps_matches(self, views8):
        plain = train_attack(IMP_9, views8[1:], seed=0)
        limited = train_attack(IMP_9Y, views8[1:], seed=0)
        view = views8[0]
        r_plain = evaluate_attack(plain, view)
        r_limited = evaluate_attack(limited, view)
        assert r_limited.n_pairs_evaluated < r_plain.n_pairs_evaluated
        # At layer 8 all matches are y-aligned, so the filter loses none.
        assert r_limited.saturation_accuracy() == pytest.approx(
            r_plain.saturation_accuracy()
        )
        arr = view.arrays()
        dy = np.abs(arr["vy"][r_limited.pair_i] - arr["vy"][r_limited.pair_j])
        assert (dy <= 1e-6).all()

    def test_probabilities_bounded(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        assert (result.prob >= 0).all() and (result.prob <= 1).all()

    def test_attack_quality_sanity(self, views8):
        """The attack must dominate random guessing by a wide margin."""
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        accuracy = result.accuracy_at_threshold(0.5)
        loc_fraction = result.loc_fraction_at_threshold(0.5)
        assert accuracy > 5 * loc_fraction


class TestLoo:
    def test_folds_partition(self, views8):
        folds = list(loo_folds(views8))
        assert len(folds) == len(views8)
        for test_view, training in folds:
            assert test_view not in training
            assert len(training) == len(views8) - 1

    def test_run_loo_returns_one_result_per_design(self, views8):
        results = run_loo(IMP_9, views8, seed=0)
        assert [r.view.design_name for r in results] == [
            v.design_name for v in views8
        ]
        assert all(r.config_name == "Imp-9" for r in results)

    def test_run_loo_needs_two_views(self, views8):
        with pytest.raises(ValueError):
            run_loo(IMP_9, views8[:1], seed=0)


class TestObservability:
    """The driver emits span trees and pipeline counters."""

    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        from repro.obs import get_registry, reset_tracing

        reset_tracing()
        get_registry().reset()
        yield
        reset_tracing()
        get_registry().reset()

    def test_run_loo_span_tree(self, views8):
        from repro.obs import drain_spans, get_registry

        run_loo(IMP_9, views8[:3], seed=0)
        (loo,) = drain_spans()
        assert loo["name"] == "loo"
        assert loo["attrs"]["n_folds"] == 3
        folds = loo["children"]
        assert [f["name"] for f in folds] == ["fold"] * 3
        for fold in folds:
            child_names = [c["name"] for c in fold["children"]]
            assert "train" in child_names and "evaluate" in child_names
        counters = get_registry().snapshot()["counters"]
        assert counters["folds_completed"] == 3
        assert counters["candidates_scored"] > 0

    def test_train_span_names_model_source(self, views8, tmp_path):
        from repro.obs import drain_spans

        cache = FeatureCache(tmp_path)
        train_attack(IMP_9, views8[1:], seed=0, cache=cache)
        train_attack(IMP_9, views8[1:], seed=0, cache=cache)
        train_attack(IMP_9, views8[1:], seed=0)
        fitted, restored, uncached = drain_spans()
        assert [fitted["attrs"]["model"], restored["attrs"]["model"]] == [
            "fitted",
            "cache",
        ]
        assert uncached["attrs"]["model"] == "fitted"
        assert {c["name"] for c in fitted["children"]} == {
            "build_training_set",
            "fit",
        }
        assert restored["children"] == []
        assert restored["attrs"]["n_samples"] == fitted["attrs"]["n_samples"]

    def test_parallel_folds_counters_match_serial(self, views8):
        from repro.obs import drain_spans, get_registry, reset_tracing

        run_loo(IMP_9, views8[:3], seed=0, jobs=1)
        serial = get_registry().snapshot()["counters"]
        get_registry().reset()
        reset_tracing()
        run_loo(IMP_9, views8[:3], seed=0, jobs=2)
        pooled = get_registry().snapshot()["counters"]
        for name in ("folds_completed", "candidates_scored"):
            assert serial[name] == pooled[name]
        (loo,) = drain_spans()
        assert [f["name"] for f in loo["children"]] == ["fold"] * 3
