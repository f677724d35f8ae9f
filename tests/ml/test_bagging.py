"""Tests for the Bagging meta-classifier (soft voting, Eq. 1-3)."""

import numpy as np
import pytest

from repro.ml.bagging import Bagging
from repro.ml.tree import REPTree

from ..serve.predict_oracle import looped_predict_proba


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 1] - X[:, 3] > 0).astype(float)
    return X, y


class TestBagging:
    def test_soft_voting_is_mean_of_bases(self):
        X, y = _data()
        model = Bagging(n_estimators=7, seed=1).fit(X, y)
        manual = np.mean(
            [est.predict_proba(X) for est in model.estimators_], axis=0
        )
        assert np.allclose(model.predict_proba(X), manual)

    def test_predict_thresholds(self):
        X, y = _data()
        model = Bagging(n_estimators=5, seed=2).fit(X, y)
        p = model.predict_proba(X)
        assert np.array_equal(model.predict(X), (p >= 0.5).astype(int))
        assert np.array_equal(model.predict(X, threshold=0.9), (p >= 0.9).astype(int))

    def test_threshold_monotone_in_yes_count(self):
        """Raising t never increases the number of positive answers --
        the property the LoC-size control relies on (Section III-F)."""
        X, y = _data()
        model = Bagging(n_estimators=5, seed=3).fit(X, y)
        counts = [model.predict(X, threshold=t).sum() for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert counts == sorted(counts, reverse=True)

    def test_quality(self):
        X, y = _data(seed=1)
        Xte, yte = _data(seed=2)
        model = Bagging(n_estimators=10, seed=4).fit(X, y)
        assert (model.predict(Xte) == yte).mean() > 0.85

    def test_hard_voting(self):
        X, y = _data()
        model = Bagging(n_estimators=5, seed=5, voting="hard").fit(X, y)
        p = model.predict_proba(X)
        # Hard votes are multiples of 1/n_estimators.
        assert np.allclose(p * 5, np.round(p * 5))

    def test_custom_base_factory(self):
        X, y = _data()
        model = Bagging(
            base_factory=lambda rng: REPTree(max_depth=2, seed=rng),
            n_estimators=3,
            seed=6,
        ).fit(X, y)
        assert all(est.depth <= 2 for est in model.estimators_)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            Bagging(n_estimators=0)
        with pytest.raises(ValueError):
            Bagging(voting="mean")

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Bagging().predict_proba(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            Bagging().fit(np.zeros((0, 2)), np.zeros(0))

    def test_engine_matches_looped_reference(self):
        """The stacked-tree serving engine behind ``predict_proba`` must be
        bit-identical to the per-estimator reference loop, both votings."""
        X, y = _data()
        Xt, _ = _data(n=800, seed=7)
        for voting in ("soft", "hard"):
            model = Bagging(n_estimators=6, seed=8, voting=voting).fit(X, y)
            assert np.array_equal(
                model.predict_proba(Xt), looped_predict_proba(model, Xt)
            ), voting

    def test_deterministic(self):
        X, y = _data()
        p1 = Bagging(n_estimators=4, seed=9).fit(X, y).predict_proba(X)
        p2 = Bagging(n_estimators=4, seed=9).fit(X, y).predict_proba(X)
        assert np.array_equal(p1, p2)
