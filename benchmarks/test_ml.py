"""Benchmarks of the tree-training engines: reference vs NumPy vs C.

The headline comparison is the one the fit engine exists for: fitting a
REPTree on a paper-scale training set (100k samples, the 11-feature
set) through the per-node-argsort pipeline kept as the test oracle
(``tests/ml/tree_oracle.py``) versus the presorted NumPy engine and the
compiled whole-tree kernel.  With a C compiler the kernel must beat
the reference by >= 3x (the training acceptance bar); the NumPy engine
must manage >= 1.5x.  All three must fit bit-identical trees -- asserted
here on the benchmarked fits.  The NumPy cases patch
:func:`repro._ckernel.load` to return ``None``, exactly as the tests'
``kernels`` fixture does.

Two more cases fit at the traffic a reproduction run sends: ensembles
on a 142 x 11 training set, the median size of the seed-0 run's fits,
where per-tree overhead rather than the split search sets the time.
"""

import numpy as np
import pytest

from repro import _ckernel
from repro.ml import fit_engine
from repro.ml.bagging import Bagging
from repro.ml.forest import RandomForest
from repro.ml.tree import REPTree
from tests.ml.tree_oracle import (
    OracleREPTree,
    oracle_bagging,
    oracle_random_forest,
)

needs_ckernel = pytest.mark.skipif(
    fit_engine._kernel() is None, reason="no C compiler available"
)


def _without_kernels(monkeypatch):
    monkeypatch.setattr(_ckernel, "load", lambda *args: None)

N_SAMPLES = 100_000
N_FEATURES = 11  # the paper's 11-feature configuration
#: Median training-set size of the seed-0 reproduction's tree fits.
N_REPRODUCE = 142


def _grid_columns(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """An ``n_samples x 11`` feature matrix with realistic columns.

    The 11-feature set mixes quantized columns (routing-grid distances
    are pitch multiples, neighborhood pin/wire counts are integers) with
    continuous ones (direction/area ratios), which is exactly the tie
    structure the split search has to handle.
    """
    columns = []
    for feature in range(N_FEATURES):
        if feature < 4:  # grid distances: multiples of a 0.19um pitch
            columns.append(np.round(rng.integers(0, 400, n_samples) * 0.19, 4))
        elif feature < 8:  # neighborhood pin / wire counts
            columns.append(rng.integers(0, 60, n_samples).astype(float))
        else:  # continuous ratios
            columns.append(rng.normal(size=n_samples))
    return np.column_stack(columns)


@pytest.fixture(scope="module")
def training_problem():
    """A paper-scale (100k x 11) training matrix."""
    rng = np.random.default_rng(0)
    X = _grid_columns(rng, N_SAMPLES)
    y = (
        X @ rng.normal(size=N_FEATURES) / 40
        + rng.normal(scale=0.8, size=N_SAMPLES)
        > 0
    ).astype(float)
    return X, y


@pytest.fixture(scope="module")
def reproduce_problem():
    """A 142 x 11 training set shaped like a reproduction run's fits.

    Balanced, noisy labels over standardized columns make each REPTree
    grow about 11 splits, as the run's fits do on average.
    """
    rng = np.random.default_rng(0)
    X = _grid_columns(rng, N_REPRODUCE)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (
        Z @ rng.normal(size=N_FEATURES)
        + rng.normal(scale=2.0, size=N_REPRODUCE)
        > 0
    ).astype(float)
    return X, y


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


def test_fit_reference(benchmark, training_problem):
    X, y = training_problem
    model = benchmark.pedantic(
        lambda: OracleREPTree(seed=3).fit(X, y),
        rounds=3,
        iterations=1,
    )
    assert model.n_nodes > 1


def test_fit_presorted_numpy(benchmark, training_problem, monkeypatch):
    X, y = training_problem
    _without_kernels(monkeypatch)
    model = benchmark.pedantic(
        lambda: REPTree(seed=3).fit(X, y),
        rounds=3,
        iterations=1,
    )
    assert model.n_nodes > 1


@needs_ckernel
def test_fit_ckernel(benchmark, training_problem):
    X, y = training_problem
    model = benchmark.pedantic(
        lambda: REPTree(seed=3).fit(X, y),
        rounds=3,
        iterations=1,
    )
    assert model.n_nodes > 1


def test_bagging_fit_reproduce_size(benchmark, reproduce_problem):
    """Bagging over 10 REPTrees at the median fit size of a reproduction."""
    X, y = reproduce_problem
    model = benchmark.pedantic(
        lambda: Bagging(seed=3).fit(X, y),
        rounds=5,
        iterations=20,
        warmup_rounds=1,
    )
    reference = oracle_bagging(seed=3).fit(X, y)
    assert np.array_equal(model.predict_proba(X), reference.predict_proba(X))


def test_random_forest_fit_reproduce_size(benchmark, reproduce_problem):
    """RandomForest over 100 RandomTrees at the same size."""
    X, y = reproduce_problem
    model = benchmark.pedantic(
        lambda: RandomForest(seed=3).fit(X, y),
        rounds=5,
        iterations=2,
        warmup_rounds=1,
    )
    reference = oracle_random_forest(seed=3).fit(X, y)
    assert np.array_equal(model.predict_proba(X), reference.predict_proba(X))


def test_mlp_fit(benchmark, training_problem):
    """The neural backend's fit on a paper-scale subset (25k x 11).

    A fixed 20-epoch budget (no early stopping) keeps the measured work
    identical across machines, so BENCH_<date>.json entries compare.
    """
    from repro.ml.mlp import MLPClassifier

    X, y = training_problem
    X, y = X[:25_000], y[:25_000]
    model = benchmark.pedantic(
        lambda: MLPClassifier(
            hidden_layers=(32, 16),
            batch_size=256,
            max_epochs=20,
            validation_fraction=0.0,
            seed=3,
        ).fit(X, y),
        rounds=3,
        iterations=1,
    )
    assert model.n_epochs_ == 20


def test_mlp_predict(benchmark, training_problem):
    """Forward-pass throughput on the full 100k x 11 matrix."""
    from repro.ml.mlp import MLPClassifier

    X, y = training_problem
    model = MLPClassifier(
        hidden_layers=(32, 16),
        batch_size=256,
        max_epochs=5,
        validation_fraction=0.0,
        seed=3,
    ).fit(X[:10_000], y[:10_000])
    prob = benchmark.pedantic(
        lambda: model.predict_proba(X), rounds=3, iterations=1
    )
    assert prob.shape == (len(X),)


def test_fit_speedup_meets_training_bar(training_problem):
    """C kernel >= 3x and NumPy presorted >= 1.5x over the reference
    grower on the paper-scale set, with bit-identical trees."""
    import time

    X, y = training_problem

    def clock(tree_class):
        best, fitted = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            fitted = tree_class(seed=3).fit(X, y)
            best = min(best, time.perf_counter() - start)
        return best, fitted

    has_ckernel = fit_engine._kernel() is not None  # also warms the kernel
    reference_s, reference = clock(OracleREPTree)
    with pytest.MonkeyPatch.context() as patch:
        _without_kernels(patch)
        numpy_s, presorted = clock(REPTree)
    assert _frozen_tuple(presorted) == _frozen_tuple(reference)
    numpy_speedup = reference_s / numpy_s
    line = (
        f"\nreference {reference_s:.3f}s, numpy {numpy_s:.3f}s "
        f"({numpy_speedup:.1f}x)"
    )
    if has_ckernel:
        c_s, compiled = clock(REPTree)
        assert _frozen_tuple(compiled) == _frozen_tuple(reference)
        c_speedup = reference_s / c_s
        print(line + f", c {c_s:.3f}s ({c_speedup:.1f}x)")
        assert c_speedup >= 3.0, f"C kernel only {c_speedup:.1f}x"
    else:
        print(line)
    assert numpy_speedup >= 1.5, f"NumPy presorted only {numpy_speedup:.1f}x"
