"""Tests for the stacked-tree inference engine (repro.serve.engine)."""

import numpy as np
import pytest

from repro.ml.bagging import Bagging
from repro.ml.forest import RandomForest
from repro.ml.tree import RandomTree, REPTree
from repro.serve.engine import StackedEnsemble

from .predict_oracle import looped_predict_proba


def _data(n=400, n_features=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = (X[:, 1] - X[:, 3] + 0.2 * rng.normal(size=n) > 0).astype(float)
    return X, y


def _models():
    X, y = _data()
    return [
        Bagging(n_estimators=7, seed=1).fit(X, y),
        Bagging(n_estimators=5, seed=2, voting="hard").fit(X, y),
        RandomForest(n_estimators=15, seed=3).fit(X, y),
        REPTree(seed=4).fit(X, y),
        RandomTree(seed=5).fit(X, y),
    ]


class TestEquivalence:
    @pytest.mark.parametrize("kernel", ["numpy", "auto"])
    def test_bit_identical_to_looped(self, kernel, kernels):
        """``auto`` scores with whichever kernel loaded, ``numpy`` without C."""
        if kernel == "numpy":
            kernels.use("numpy")
        Xt, _ = _data(n=3000, seed=9)
        for model in _models():
            engine = StackedEnsemble.from_model(model)
            if isinstance(model, Bagging):
                reference = looped_predict_proba(model, Xt)
            else:
                reference = model.predict_proba(Xt)
            scored = engine.predict_proba(Xt)
            assert np.array_equal(reference, scored), type(model).__name__

    def test_kernels_agree(self, kernels):
        X, y = _data()
        Xt, _ = _data(n=2000, seed=7)
        model = Bagging(n_estimators=4, seed=6).fit(X, y)
        engine = StackedEnsemble.from_model(model)
        reference = looped_predict_proba(model, Xt)
        for mode in kernels:
            assert np.array_equal(engine.predict_proba(Xt), reference), mode

    def test_chunking_invariant(self):
        X, y = _data()
        Xt, _ = _data(n=1234, seed=8)
        engine = StackedEnsemble.from_model(Bagging(n_estimators=3, seed=7).fit(X, y))
        whole = engine.predict_proba(Xt)
        for chunk in (1, 17, 100, 1234, 10_000):
            assert np.array_equal(whole, engine.predict_proba(Xt, chunk_size=chunk))

    def test_bagging_predict_proba_routes_through_engine(self):
        X, y = _data()
        Xt, _ = _data(n=500, seed=11)
        model = Bagging(n_estimators=6, seed=10).fit(X, y)
        assert np.array_equal(model.predict_proba(Xt), looped_predict_proba(model, Xt))
        assert model._engine is not None
        model.fit(X, y)  # refit invalidates the cached engine
        assert model._engine is None


class TestValidation:
    def test_feature_count_mismatch(self):
        X, y = _data(n_features=5)
        engine = StackedEnsemble.from_model(Bagging(n_estimators=2, seed=1).fit(X, y))
        with pytest.raises(ValueError, match="expected 5 features"):
            engine.predict_proba(np.zeros((3, 4)))

    def test_rejects_1d_input(self):
        X, y = _data()
        engine = StackedEnsemble.from_model(REPTree(seed=0).fit(X, y))
        with pytest.raises(ValueError, match="2-D"):
            engine.predict_proba(np.zeros(6))

    def test_empty_input(self):
        X, y = _data()
        engine = StackedEnsemble.from_model(Bagging(n_estimators=2, seed=1).fit(X, y))
        assert len(engine.predict_proba(np.zeros((0, 6)))) == 0

    def test_unfitted_and_empty(self):
        with pytest.raises(RuntimeError):
            StackedEnsemble.from_model(Bagging(n_estimators=2))
        with pytest.raises(ValueError):
            StackedEnsemble.from_trees([])

    def test_bad_kernel_and_chunk(self):
        X, y = _data()
        engine = StackedEnsemble.from_model(REPTree(seed=0).fit(X, y))
        with pytest.raises(TypeError):  # the kernel is not selectable
            engine.predict_proba(X, kernel="gpu")
        with pytest.raises(ValueError):
            engine.predict_proba(X, chunk_size=0)

    def test_voting_validation(self):
        X, y = _data()
        tree = REPTree(seed=0).fit(X, y)
        with pytest.raises(ValueError):
            StackedEnsemble.from_trees([tree], voting="mean")


class TestStructure:
    def test_stacked_shapes(self):
        X, y = _data()
        model = Bagging(n_estimators=4, seed=3).fit(X, y)
        engine = StackedEnsemble.from_model(model)
        assert engine.n_trees == 4
        assert engine.n_nodes == sum(e._tree.n_nodes for e in model.estimators_)
        assert engine.roots[0] == 0
        # Child pointers stay within each tree's node range.
        internal = engine.left >= 0
        assert (engine.left[internal] < engine.n_nodes).all()
        assert (engine.right[internal] < engine.n_nodes).all()

    def test_predict_threshold(self):
        X, y = _data()
        engine = StackedEnsemble.from_model(Bagging(n_estimators=3, seed=2).fit(X, y))
        p = engine.predict_proba(X)
        assert np.array_equal(engine.predict(X, threshold=0.7), (p >= 0.7).astype(int))
