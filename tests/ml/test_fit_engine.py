"""Bit-identity and kernel-selection tests for the presorted fit engine.

The contract under test (see ``repro/ml/fit_engine.py``): both split
searches -- the compiled C kernel and the presorted NumPy scan -- grow
node-for-node identical trees to the per-node-argsort oracle
(``tree_oracle.py``), on every input including ties, duplicated
columns, constant features, ``min_samples_leaf`` edges and depth-cap
hits.  Each equality test runs once per kernel mode (the ``kernels``
fixture).
"""

import numpy as np
import pytest

from repro import _ckernel
from repro.ml import fit_engine
from repro.ml.bagging import Bagging
from repro.ml.fit_engine import _entropy_scalar, _entropy_terms, grow_tree
from repro.ml.forest import RandomForest
from repro.ml.tree import REPTree, RandomTree
from repro.obs.metrics import get_registry

from .tree_oracle import (
    OracleRandomTree,
    OracleREPTree,
    oracle_bagging,
    oracle_random_forest,
)


def _frozen_tuple(model):
    tree = model._tree
    return (
        tree.feature.tolist(),
        tree.threshold.tolist(),
        tree.left.tolist(),
        tree.right.tolist(),
        tree.pos.tolist(),
        tree.neg.tolist(),
    )


def _make_dataset(kind: str, n: int, rng: np.random.Generator):
    """Datasets exercising the split-search edge cases."""
    n_features = 7
    X = rng.normal(size=(n, n_features))
    if kind == "ties":
        X = np.round(X, 1)  # heavy duplicate values per column
    elif kind == "constant":
        X[:, 0] = 3.25
        X[:, 3] = -1.0
    elif kind == "duplicated":
        X[:, 1] = X[:, 2]  # equal-gain features: cross-feature ties
        X[:, 4] = np.round(X[:, 4], 0)
    elif kind == "binaryish":
        X = (X > 0).astype(float)  # every candidate is a tie cluster
    y = (X.sum(axis=1) + rng.normal(scale=0.8, size=n) > 0).astype(float)
    return X, y


DATASET_KINDS = ["plain", "ties", "constant", "duplicated", "binaryish"]


class TestEngineEquality:
    """Property-style grid: presorted/C fits == reference fits."""

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    @pytest.mark.parametrize("n", [30, 200, 1000])
    def test_reptree_identical_trees(self, kind, n, kernels):
        rng = np.random.default_rng([DATASET_KINDS.index(kind), n])
        X, y = _make_dataset(kind, n, rng)
        reference = OracleREPTree(seed=5).fit(X, y)
        X_test = rng.normal(size=(64, X.shape[1]))
        for mode in kernels:
            model = REPTree(seed=5).fit(X, y)
            assert _frozen_tuple(model) == _frozen_tuple(reference), mode
            assert np.array_equal(
                model.predict_proba(X_test), reference.predict_proba(X_test)
            )

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 5])
    def test_randomtree_identical_trees(self, kind, min_samples_leaf, kernels):
        """RandomTree: per-node RNG feature sampling must stay in sync."""
        rng = np.random.default_rng([DATASET_KINDS.index(kind), min_samples_leaf])
        X, y = _make_dataset(kind, 300, rng)
        reference = OracleRandomTree(
            seed=9, min_samples_leaf=min_samples_leaf
        ).fit(X, y)
        X_test = rng.normal(size=(64, X.shape[1]))
        for mode in kernels:
            model = RandomTree(seed=9, min_samples_leaf=min_samples_leaf).fit(X, y)
            assert _frozen_tuple(model) == _frozen_tuple(reference), mode
            assert np.array_equal(
                model.predict_proba(X_test), reference.predict_proba(X_test)
            )

    @pytest.mark.parametrize("max_depth", [2, 4, 25])
    def test_depth_cap_hits(self, max_depth, kernels):
        rng = np.random.default_rng(77)
        X, y = _make_dataset("ties", 500, rng)
        reference = OracleREPTree(seed=1, max_depth=max_depth).fit(X, y)
        for mode in kernels:
            model = REPTree(seed=1, max_depth=max_depth).fit(X, y)
            assert _frozen_tuple(model) == _frozen_tuple(reference), mode
            assert model.depth <= max_depth

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 7])
    def test_min_samples_leaf_edges(self, min_samples_leaf, kernels):
        rng = np.random.default_rng(13)
        # n barely above 2*msl plus a pure-class column tempting an
        # msl-violating split.
        X, y = _make_dataset("ties", 2 * min_samples_leaf + 3, rng)
        reference = OracleREPTree(seed=2, min_samples_leaf=min_samples_leaf).fit(X, y)
        for mode in kernels:
            model = REPTree(seed=2, min_samples_leaf=min_samples_leaf).fit(X, y)
            assert _frozen_tuple(model) == _frozen_tuple(reference), mode

    def test_ensembles_identical(self, kernels):
        rng = np.random.default_rng(21)
        X, y = _make_dataset("ties", 400, rng)
        X_test = rng.normal(size=(120, X.shape[1]))
        reference = oracle_bagging(seed=4).fit(X, y)
        rf_reference = oracle_random_forest(n_estimators=6, seed=4).fit(X, y)
        for _mode in kernels:
            bag = Bagging(seed=4).fit(X, y)
            assert np.array_equal(
                bag.predict_proba(X_test), reference.predict_proba(X_test)
            )
            forest = RandomForest(n_estimators=6, seed=4).fit(X, y)
            assert np.array_equal(
                forest.predict_proba(X_test),
                rf_reference.predict_proba(X_test),
            )

    def test_single_class_and_tiny_inputs(self, kernels):
        X = np.array([[0.0], [1.0], [2.0]])
        for y in (np.zeros(3), np.ones(3)):
            for _mode in kernels:
                model = REPTree(seed=0).fit(X, y)
                assert model.n_nodes == 1  # pure node: no split

    def test_non_binary_labels_rejected(self, kernels):
        """Both kernels count classes exactly, so labels must be 0/1."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 3))
        for y in (rng.random(60), np.full(60, 2.0), np.r_[np.zeros(30), -np.ones(30)]):
            for _mode in kernels:
                for model in (REPTree(seed=6), RandomTree(seed=6), Bagging(seed=6)):
                    with pytest.raises(ValueError, match="0 or 1"):
                        model.fit(X, y)


class TestGrowTree:
    def test_stats_counters(self, kernels):
        rng = np.random.default_rng(8)
        X, y = _make_dataset("plain", 200, rng)
        for _mode in kernels:
            root, stats = grow_tree(
                X,
                y,
                candidate_features=lambda n_features: np.arange(n_features),
                max_depth=25,
                min_samples_leaf=2,
                min_gain=1e-7,
            )
            assert stats["nodes"] == 2 * stats["splits"] + 1
            assert not root.is_leaf


class TestEntropyScalar:
    def test_bitwise_equal_to_array_form(self):
        """The hoisted scalar parent entropy must be bit-identical to the
        seed's throwaway 1-element-array computation."""
        counts = [0.0, 1.0, 2.0, 3.0, 7.0, 10.0, 97.0, 1000.0, 12345.0]
        for pos in counts:
            for neg in counts:
                array_form = float(
                    _entropy_terms(np.array([pos]), np.array([neg]))[0]
                )
                assert _entropy_scalar(pos, neg) == array_form, (pos, neg)


def _tree_fits(engine: str) -> int:
    counters = get_registry().snapshot()["counters"]
    return counters.get(f"tree_fits{{engine={engine}}}", 0)


def _fit_once() -> None:
    rng = np.random.default_rng(4)
    X, y = _make_dataset("plain", 80, rng)
    REPTree(seed=0).fit(X, y)


class TestEngineResolution:
    """The engine is whichever kernel loaded; ``$CC`` is the only control."""

    @pytest.fixture()
    def fresh_loader(self, monkeypatch):
        """An empty kernel cache, so the next load compiles again."""
        monkeypatch.setattr(_ckernel, "_loaded", {})

    def test_env_override(self, monkeypatch, fresh_loader):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert fit_engine._kernel() is None
        before = _tree_fits("numpy")
        _fit_once()
        assert _tree_fits("numpy") == before + 1

    def test_unknown_engine_rejected(self):
        for cls in (REPTree, RandomTree, Bagging, RandomForest):
            with pytest.raises(TypeError):
                cls(engine="c")

    def test_auto_without_kernel_is_numpy(self, kernels):
        kernels.use("numpy")
        before = _tree_fits("numpy"), _tree_fits("c")
        _fit_once()
        assert (_tree_fits("numpy"), _tree_fits("c")) == (before[0] + 1, before[1])

    def test_auto_with_kernel_is_c(self, kernels):
        kernels.use("c")
        before = _tree_fits("numpy"), _tree_fits("c")
        _fit_once()
        assert (_tree_fits("numpy"), _tree_fits("c")) == (before[0], before[1] + 1)

    def test_no_ckernel_env_disables_compilation(self, monkeypatch, fresh_loader):
        monkeypatch.setenv("CC", "false")
        assert fit_engine._kernel() is None
