"""Contract tests for the pluggable classifier-backend registry.

Every registered backend must honor the uniform contract:
``fit(X, y, seed)`` / ``predict_proba`` / ``get_params`` /
``to_state`` / ``from_state`` with bit-identical restore.  The tests
parametrize over :func:`list_backends` so a newly registered backend is
covered (or loudly missing from ``SMALL_PARAMS``) automatically.
"""

import json
import pickle

import numpy as np
import pytest

from repro.ml.backends import (
    BackendError,
    ClassifierBackend,
    create_backend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.ml.bagging import Bagging
from repro.ml.forest import RandomForest
from repro.ml.knn import KNNClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.mlp import MLPClassifier

#: Cheap constructor parameters per backend, to keep contract tests fast.
SMALL_PARAMS = {
    "bagging": {"n_estimators": 3},
    "randomforest": {"n_estimators": 5, "max_depth": 6},
    "knn": {"k": 3},
    "logistic": {"iterations": 50},
    "mlp": {"hidden_layers": (4,), "max_epochs": 8, "batch_size": 32},
}

ALL_BACKENDS = list_backends()


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(250, 4))
    y = (X[:, 0] - X[:, 1] > 0).astype(float)
    return X, y


def _fit(name, problem, seed=0):
    X, y = problem
    return create_backend(name, **SMALL_PARAMS[name]).fit(X, y, seed=seed)


def test_small_params_covers_every_backend():
    assert set(SMALL_PARAMS) == set(ALL_BACKENDS)


class TestRegistry:
    def test_expected_backends_registered(self):
        assert ALL_BACKENDS == sorted(
            ["bagging", "randomforest", "knn", "logistic", "mlp"]
        )

    def test_list_is_sorted(self):
        assert ALL_BACKENDS == sorted(ALL_BACKENDS)

    def test_unknown_backend_names_the_registered_ones(self):
        with pytest.raises(BackendError, match="bagging.*mlp"):
            get_backend("weka")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("bagging", get_backend("bagging"))

    def test_duplicate_registration_with_replace(self):
        original = get_backend("bagging")
        register_backend("bagging", original, replace=True)
        assert get_backend("bagging") is original

    def test_empty_name_rejected(self):
        with pytest.raises(BackendError, match="non-empty"):
            register_backend("", ClassifierBackend)

    def test_bad_constructor_params(self):
        with pytest.raises(BackendError, match="knn"):
            create_backend("knn", bogus_param=3)

    def test_underlying_model_classes(self, problem):
        expected = {
            "bagging": Bagging,
            "randomforest": RandomForest,
            "knn": KNNClassifier,
            "logistic": LogisticRegression,
            "mlp": MLPClassifier,
        }
        for name, model_cls in expected.items():
            backend = _fit(name, problem)
            assert isinstance(backend.model_, model_cls)


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendContract:
    def test_predict_proba_shape_and_range(self, name, problem):
        X, _ = problem
        prob = _fit(name, problem).predict_proba(X)
        assert prob.shape == (len(X),)
        assert np.all(prob >= 0.0) and np.all(prob <= 1.0)

    def test_predict_thresholds_proba(self, name, problem):
        X, _ = problem
        backend = _fit(name, problem)
        np.testing.assert_array_equal(
            backend.predict(X), (backend.predict_proba(X) >= 0.5).astype(int)
        )

    def test_unfitted_raises(self, name, problem):
        backend = create_backend(name, **SMALL_PARAMS[name])
        X, _ = problem
        with pytest.raises(RuntimeError):
            backend.predict_proba(X)
        with pytest.raises(RuntimeError):
            backend.to_state()

    def test_same_seed_is_bit_identical(self, name, problem):
        X, _ = problem
        a = _fit(name, problem, seed=13).predict_proba(X)
        b = _fit(name, problem, seed=13).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    def test_get_params_rebuilds_equivalent_backend(self, name, problem):
        X, _ = problem
        first = _fit(name, problem, seed=3)
        params = first.get_params()
        json.dumps(params)  # must be JSON-able for manifests
        second = create_backend(name, **params)
        second.fit(*problem, seed=3)
        np.testing.assert_array_equal(
            first.predict_proba(X), second.predict_proba(X)
        )

    def test_state_round_trip_bit_identical(self, name, problem):
        X, _ = problem
        backend = _fit(name, problem, seed=5)
        arrays, params = backend.to_state()
        json.dumps(params)  # manifest metadata must be JSON-able
        assert all(isinstance(a, np.ndarray) for a in arrays.values())
        restored = get_backend(name).from_state(arrays, params)
        Xt = np.random.default_rng(9).normal(size=(64, X.shape[1]))
        np.testing.assert_array_equal(
            backend.predict_proba(Xt), restored.predict_proba(Xt)
        )
        # Restored models ship to pool workers, so they must pickle.
        shipped = pickle.loads(pickle.dumps(restored.model_))
        np.testing.assert_array_equal(
            restored.predict_proba(Xt), shipped.predict_proba(Xt)
        )

    def test_fit_returns_self(self, name, problem):
        backend = create_backend(name, **SMALL_PARAMS[name])
        assert backend.fit(*problem, seed=0) is backend


class TestSeededDeterministicBackends:
    """kNN and logistic are deterministic: the seed must be a no-op."""

    @pytest.mark.parametrize("name", ["knn", "logistic"])
    def test_seed_is_no_op(self, name, problem):
        X, _ = problem
        a = _fit(name, problem, seed=0).predict_proba(X)
        b = _fit(name, problem, seed=999).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["bagging", "randomforest", "mlp"])
    def test_seed_matters_for_stochastic_backends(self, name, problem):
        X, _ = problem
        a = _fit(name, problem, seed=0).predict_proba(X)
        b = _fit(name, problem, seed=999).predict_proba(X)
        assert not np.array_equal(a, b)


class TestFrameworkIntegration:
    def test_make_classifier_resolves_backend(self):
        from repro.attack.config import IMP_9
        from repro.attack.framework import make_classifier

        mlp_config = IMP_9.with_backend(
            "mlp", hidden_layers=(8,), max_epochs=5
        )
        model = make_classifier(mlp_config, seed=0)
        assert isinstance(model, MLPClassifier)
        assert model.hidden_layers == (8,)

    def test_make_classifier_default_matches_paper_bagging(self):
        from repro.attack.config import IMP_9
        from repro.attack.framework import make_classifier

        model = make_classifier(IMP_9, seed=0)
        assert isinstance(model, Bagging)
        assert model.n_estimators == IMP_9.n_estimators

    def test_unknown_backend_in_config_raises(self):
        from repro.attack.config import IMP_9
        from repro.attack.framework import make_backend

        with pytest.raises(BackendError):
            make_backend(IMP_9.with_backend("caffe"))

    def test_with_backend_normalizes_params(self):
        from repro.attack.config import IMP_9

        config = IMP_9.with_backend("mlp", hidden_layers=[16, 8])
        assert config.backend == "mlp"
        assert config.backend_params == (("hidden_layers", (16, 8)),)
        assert config.name == f"{IMP_9.name}+mlp"
        assert hash(config)  # stays hashable for caching
