"""Benchmarks of the serving stack: looped vs stacked-tree inference.

The headline comparison is the one the serving subsystem exists for:
scoring >= 100k candidate pairs with a Bagging-10 ensemble through the
per-estimator reference loop (the test oracle,
``tests/serve/predict_oracle.py``) versus the stacked-tree engine.  With
a C compiler available the engine must beat the loop by >= 5x (the
serving acceptance bar); the pure-NumPy fallback, selected by patching
:func:`repro._ckernel.load` to return ``None``, is benchmarked
separately.
"""

import numpy as np
import pytest

from repro import _ckernel
from repro.ml.bagging import Bagging
from repro.serve import engine as serve_engine
from repro.serve.engine import StackedEnsemble
from repro.splitmfg.pair_features import FEATURES_11, compute_pair_features
from repro.splitmfg.sampling import build_training_set, iter_all_pairs
from tests.serve.predict_oracle import looped_predict_proba

MIN_PAIRS = 100_000


@pytest.fixture(scope="module")
def scoring_problem(views6, views4):
    """A fitted Bagging-10 plus >= 100k real candidate-pair features.

    Training uses the layer-6 views; the pairs to score come from the
    layer-4 cut of the largest design, which carries enough v-pins for
    a six-figure candidate count at bench scale.
    """
    rng = np.random.default_rng(0)
    ts = build_training_set(views6, FEATURES_11, rng)
    model = Bagging(n_estimators=10, seed=1).fit(ts.X, ts.y)
    view = max(views4, key=len)
    blocks, total = [], 0
    for i, j in iter_all_pairs(len(view), 200_000):
        blocks.append(compute_pair_features(view, i, j, FEATURES_11))
        total += len(i)
        if total >= MIN_PAIRS:
            break
    X = np.concatenate(blocks)[:MIN_PAIRS]
    assert len(X) == MIN_PAIRS
    return model, X


def test_inference_looped_reference(benchmark, scoring_problem):
    model, X = scoring_problem
    prob = benchmark.pedantic(
        lambda: looped_predict_proba(model, X), rounds=3, iterations=1
    )
    assert len(prob) == MIN_PAIRS


def test_inference_stacked_engine(benchmark, scoring_problem):
    model, X = scoring_problem
    engine = StackedEnsemble.from_model(model)
    prob = benchmark.pedantic(lambda: engine.predict_proba(X), rounds=3, iterations=1)
    assert np.array_equal(prob, looped_predict_proba(model, X))


def test_inference_stacked_numpy_fallback(benchmark, scoring_problem, monkeypatch):
    model, X = scoring_problem
    engine = StackedEnsemble.from_model(model)
    monkeypatch.setattr(_ckernel, "load", lambda *args: None)
    prob = benchmark.pedantic(lambda: engine.predict_proba(X), rounds=3, iterations=1)
    assert np.array_equal(prob, looped_predict_proba(model, X))


def test_speedup_meets_serving_bar(scoring_problem):
    """Engine >= 5x over the reference loop on >= 100k pairs (with the C
    kernel; the NumPy fallback is only required to be no slower)."""
    import time

    model, X = scoring_problem
    engine = StackedEnsemble.from_model(model)
    engine.predict_proba(X[:1024])  # compile/warm the kernel up front

    def clock(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    looped = clock(lambda: looped_predict_proba(model, X))
    stacked = clock(lambda: engine.predict_proba(X))
    speedup = looped / stacked
    print(f"\nlooped {looped:.3f}s, stacked {stacked:.3f}s, speedup {speedup:.1f}x")
    if serve_engine._kernel() is not None:
        assert speedup >= 5.0, f"only {speedup:.1f}x over the reference loop"
    else:
        assert speedup >= 1.0, f"fallback slower than the loop ({speedup:.2f}x)"
