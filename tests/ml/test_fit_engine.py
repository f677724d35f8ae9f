"""Bit-identity and kernel-selection tests for the fit engines.

The contract under test (see ``repro/ml/fit_engine.py``): both engines
-- the compiled whole-tree kernel and the presorted NumPy pipeline --
fit node-for-node identical trees to the per-node-argsort oracle
(``tree_oracle.py``), on every input including ties, duplicated
columns, constant features, ``min_samples_leaf`` edges, depth-cap hits
and training sets too small to prune, and leave a RandomTree's RNG in
the oracle's state.  Each equality test runs once per kernel mode (the
``kernels`` fixture); the oracle itself never runs an engine.
"""

import numpy as np
import pytest

from repro import _ckernel
from repro.ml import fit_engine
from repro.ml.bagging import Bagging
from repro.ml.fit_engine import (
    _entropy_scalar,
    _entropy_terms,
    fit_tree_kernel,
    grow_tree,
)
from repro.ml.forest import RandomForest
from repro.ml.tree import DecisionTreeBase, REPTree, RandomTree
from repro.obs.metrics import get_registry

from .tree_oracle import (
    OracleDecisionTree,
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


def _rng_state(model):
    return model.rng.bit_generator.state


def _counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


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
    elif kind == "grid":
        # Routing-grid distances (multiples of a 0.19um pitch) and
        # integer pin counts, like the attack's training features.
        X[:, :4] = np.round(rng.integers(0, 40, size=(n, 4)) * 0.19, 4)
        X[:, 4:6] = rng.integers(0, 12, size=(n, 2))
        signal = ((X - X.mean(axis=0)) / np.maximum(X.std(axis=0), 1e-9)).sum(axis=1)
        y = (signal + rng.normal(scale=1.5, size=n) > 0).astype(float)
        return X, y
    y = (X.sum(axis=1) + rng.normal(scale=0.8, size=n) > 0).astype(float)
    return X, y


DATASET_KINDS = ["plain", "ties", "constant", "duplicated", "binaryish", "grid"]

#: Grow-only sizes (below ``num_folds``), tiny trees, and the median
#: (142) and p90 (414) training-set sizes of the seed-0 reproduction.
SMALL_AND_TYPICAL_N = [2, 3, 5, 8, 142, 414]


class TestEngineEquality:
    """Property-style grid: presorted/C fits == reference fits."""

    @pytest.mark.parametrize("kind", DATASET_KINDS)
    @pytest.mark.parametrize("n", [30, 200, 1000] + SMALL_AND_TYPICAL_N)
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
            assert _rng_state(model) == _rng_state(reference), mode
            assert np.array_equal(
                model.predict_proba(X_test), reference.predict_proba(X_test)
            )

    @pytest.mark.parametrize("kind", ["plain", "ties", "grid"])
    @pytest.mark.parametrize("n", SMALL_AND_TYPICAL_N)
    def test_randomtree_rng_stream(self, kind, n, kernels):
        """Every per-node draw happens in the oracle's order: same trees
        and the same generator state after each fit."""
        rng = np.random.default_rng([DATASET_KINDS.index(kind), n, 1])
        X, y = _make_dataset(kind, n, rng)
        references = [OracleRandomTree(seed=s, min_samples_leaf=1) for s in range(3)]
        for tree in references:
            tree.fit(X, y)
        for mode in kernels:
            for seed, reference in enumerate(references):
                model = RandomTree(seed=seed, min_samples_leaf=1).fit(X, y)
                assert _frozen_tuple(model) == _frozen_tuple(reference), mode
                assert _rng_state(model) == _rng_state(reference), mode

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

    def test_midpoint_rounding_onto_upper_value(self, kernels):
        """Adjacent doubles whose midpoint rounds up send every row left:
        both engines keep the empty right child, and the left child
        repeats the split down to the depth cap (51 nodes from 18 rows,
        past the kernel's initial node storage)."""
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        X = np.array([[a, 0.0], [a, 1.0], [a, 0.0], [b, 1.0], [b, 0.0], [b, 1.0]] * 3)
        y = np.array([0, 0, 0, 1, 1, 1] * 3, dtype=float)
        references = [
            OracleDecisionTree(min_samples_leaf=1).fit(X, y),
            OracleREPTree(seed=3, min_samples_leaf=1).fit(X, y),
            OracleRandomTree(seed=3, min_samples_leaf=1).fit(X, y),
        ]
        assert references[0].n_nodes == 51
        for mode in kernels:
            models = [
                DecisionTreeBase(min_samples_leaf=1).fit(X, y),
                REPTree(seed=3, min_samples_leaf=1).fit(X, y),
                RandomTree(seed=3, min_samples_leaf=1).fit(X, y),
            ]
            for model, reference in zip(models, references):
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

    def test_non_finite_features_rejected(self, kernels):
        """The kernel's input contract: every feature value is finite."""
        rng = np.random.default_rng(3)
        y = (rng.random(60) > 0.5).astype(float)
        for bad in (np.nan, np.inf, -np.inf):
            X = rng.normal(size=(60, 3))
            X[17, 1] = bad
            for _mode in kernels:
                for model in (REPTree(seed=6), RandomTree(seed=6), Bagging(seed=6)):
                    with pytest.raises(ValueError, match="finite"):
                        model.fit(X, y)


def _label_swapped_tie():
    """Two features whose only splits are label-swapped, not mirrored:
    a pure-positive vs a pure-negative 3-row left child.  Their scores
    tie without a structural reason, so the kernel must defer the root
    to the NumPy search."""
    y = np.array([1, 1, 1, 0, 0, 0, 1, 1, 0, 0], dtype=float)
    X = np.ones((10, 2))
    X[:3, 0] = 0.0
    X[3:6, 1] = 0.0
    return X, y


class TestCallbacks:
    """The kernel's calls back into Python: uncertain nodes and draws."""

    def test_uncertain_nodes_fall_back(self, kernels):
        X, y = _label_swapped_tie()
        X = np.tile(X, (4, 1))
        y = np.tile(y, 4)
        reference = OracleDecisionTree(min_samples_leaf=1).fit(X, y)
        for mode in kernels:
            before = _counter("fit_kernel_fallbacks")
            model = DecisionTreeBase(min_samples_leaf=1).fit(X, y)
            assert _frozen_tuple(model) == _frozen_tuple(reference), mode
            fallbacks = _counter("fit_kernel_fallbacks") - before
            assert fallbacks >= 1 if mode == "c" else fallbacks == 0, mode

    def test_draw_exception_reaches_caller(self, kernels):
        """An exception raised by ``_candidate_features`` -- here at the
        third expandable node -- aborts the fit and is re-raised as is."""

        class Boom(Exception):
            pass

        raised = Boom("draw failed")

        class FailingTree(RandomTree):
            draws = 0

            def _candidate_features(self, n_features):
                self.draws += 1
                if self.draws == 3:
                    raise raised
                return super()._candidate_features(n_features)

        X, y = _make_dataset("plain", 200, np.random.default_rng(5))
        for mode in kernels:
            with pytest.raises(Boom) as excinfo:
                FailingTree(seed=1, min_samples_leaf=1).fit(X, y)
            assert excinfo.value is raised, mode

    def test_search_exception_reaches_caller(self, kernels, monkeypatch):
        """An exception inside the NumPy search callback aborts the fit."""
        raised = RuntimeError("search failed")

        def failing_search(*args):
            raise raised

        monkeypatch.setattr(fit_engine, "_search_numpy", failing_search)
        X, y = _label_swapped_tie()
        for mode in kernels:
            with pytest.raises(RuntimeError) as excinfo:
                DecisionTreeBase(min_samples_leaf=1).fit(X, y)
            assert excinfo.value is raised, mode

    def test_out_of_range_draw_rejected(self, kernels):
        class BadDraw(RandomTree):
            def _candidate_features(self, n_features):
                return np.array([0, n_features])

        X, y = _make_dataset("plain", 50, np.random.default_rng(6))
        for _mode in kernels:
            with pytest.raises(IndexError):
                BadDraw(seed=0).fit(X, y)


class TestOracle:
    def test_oracle_never_runs_an_engine(self, kernels):
        """The oracle fits through the reference pipeline even with the
        kernel loaded; otherwise every ``c``-mode equality test would
        compare the kernel with itself."""
        kernels.use("c")
        X, y = _make_dataset("ties", 300, np.random.default_rng(11))
        before = _tree_fits("c"), _tree_fits("numpy")
        OracleREPTree(seed=1).fit(X, y)
        OracleRandomTree(seed=1).fit(X, y)
        OracleDecisionTree().fit(X, y)
        oracle_bagging(n_estimators=3, seed=2).fit(X, y)
        assert (_tree_fits("c"), _tree_fits("numpy")) == before


class TestGrowTree:
    def test_stats_counters(self, kernels):
        """Both engines count the same nodes and splits for one tree, and
        each fit counts once under its own engine label."""
        rng = np.random.default_rng(8)
        X, y = _make_dataset("plain", 200, rng)
        params = dict(max_depth=25, min_samples_leaf=2, min_gain=1e-7)
        before = _tree_fits("numpy"), _counter("fit_split_nodes")
        root, stats = grow_tree(
            X, y, candidate_features=lambda n_features: np.arange(n_features),
            **params,
        )
        assert stats["nodes"] == 2 * stats["splits"] + 1
        assert not root.is_leaf
        assert (_tree_fits("numpy"), _counter("fit_split_nodes")) == (
            before[0] + 1, before[1] + stats["splits"],
        )
        kernels.use("c")
        before = _tree_fits("c"), _counter("fit_split_nodes")
        arrays, kernel_stats = fit_tree_kernel(
            fit_engine._kernel(), X, y, None, None, None, **params
        )
        assert kernel_stats["nodes"] == stats["nodes"]
        assert kernel_stats["splits"] == stats["splits"]
        assert len(arrays[0]) == stats["nodes"]  # nothing pruned
        assert (_tree_fits("c"), _counter("fit_split_nodes")) == (
            before[0] + 1, before[1] + stats["splits"],
        )


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
