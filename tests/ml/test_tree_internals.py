"""White-box tests of tree internals: leaf statistics and Eq. (1)."""

import numpy as np
import pytest

from repro.ml.tree import REPTree, RandomTree

from .tree_oracle import _best_split


class TestBestSplit:
    def test_finds_obvious_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        feature, threshold, gain = _best_split(
            X, y, np.array([0]), min_samples_leaf=1, min_gain=1e-9
        )
        assert feature == 0
        assert 1.0 < threshold < 10.0
        assert gain == pytest.approx(np.log(2))

    def test_constant_feature_no_split(self):
        X = np.ones((10, 1))
        y = np.array([0.0, 1.0] * 5)
        assert (
            _best_split(X, y, np.array([0]), min_samples_leaf=1, min_gain=1e-9)
            is None
        )

    def test_min_samples_leaf_respected(self):
        # The only informative split would isolate one sample.
        X = np.array([[0.0], [5.0], [5.0], [5.0]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        result = _best_split(
            X, y, np.array([0]), min_samples_leaf=2, min_gain=1e-9
        )
        assert result is None

    def test_picks_better_of_two_features(self):
        rng = np.random.default_rng(0)
        y = (rng.random(200) > 0.5).astype(float)
        X = np.column_stack([rng.normal(size=200), y + rng.normal(0, 0.05, 200)])
        feature, _t, _g = _best_split(
            X, y, np.array([0, 1]), min_samples_leaf=1, min_gain=1e-9
        )
        assert feature == 1


class TestLeafStatistics:
    def test_leaf_counts_sum_to_training_size(self):
        """Eq. (1) denominators: routing all data through the frozen tree
        must conserve the sample count."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] > 0).astype(float)
        tree = REPTree(seed=2).fit(X, y)
        frozen = tree._tree
        leaves = frozen.left < 0
        assert frozen.pos[leaves].sum() + frozen.neg[leaves].sum() == pytest.approx(300)
        assert frozen.pos[leaves].sum() == pytest.approx(y.sum())

    def test_leaf_probability_definition(self):
        """predict_proba returns exactly pos/(pos+neg) of the leaf."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = (X[:, 1] > 0).astype(float)
        tree = RandomTree(seed=4).fit(X, y)
        frozen = tree._tree
        leaves = tree._leaf_indices(X)
        expected = frozen.pos[leaves] / (frozen.pos[leaves] + frozen.neg[leaves])
        assert np.allclose(tree.predict_proba(X), expected)

    def test_root_is_leaf_for_tiny_data(self):
        tree = REPTree(seed=0).fit(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        # min_samples_leaf=2 forbids splitting two samples.
        assert tree.n_nodes == 1

    def test_pruned_tree_never_larger(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 5))
        y = ((X[:, 0] > 0) ^ (rng.random(400) < 0.3)).astype(float)
        rep = REPTree(seed=6).fit(X, y)
        unpruned = REPTree(seed=6, num_folds=2)
        # Grow-only reference: same data, no prune fold effect is hard to
        # isolate exactly; compare against the unpruned RandomTree with
        # all features considered per node instead.
        raw = RandomTree(seed=6, min_samples_leaf=2)
        raw._candidate_features = lambda nf: np.arange(nf)  # full features
        raw.fit(X, y)
        assert rep.n_nodes <= raw.n_nodes
