"""Benchmarks of the pair-featurization engine: legacy vs fused vs C.

The headline comparison is the one the featurize engine exists for:
writing the 11-feature matrix for one million candidate pairs into a
preallocated buffer through the compiled kernel versus the fused
single-pass NumPy path versus the legacy per-feature
``compute_pair_features``.  With a C compiler the kernel must beat the
legacy path by >= 3x (the featurization acceptance bar); the fused
NumPy fallback must manage >= 1.5x.  All three must produce
byte-identical matrices -- asserted here on the benchmarked runs.  The
NumPy cases patch :func:`repro._ckernel.load` to return ``None``,
exactly as the tests' ``kernels`` fixture does.
"""

import numpy as np
import pytest

from repro import _ckernel
from repro.splitmfg import featurize_engine
from repro.splitmfg.featurize_engine import PairFeaturizer
from repro.splitmfg.pair_features import FEATURES_11, compute_pair_features
from repro.splitmfg.split import SplitView, VPin
from repro.layout.geometry import Point

needs_ckernel = pytest.mark.skipif(
    featurize_engine._kernel() is None, reason="no C compiler available"
)

N_PAIRS = 1_000_000
N_VPINS = 1_500  # C(1500, 2) > 1M: pair indices never repeat a pair


def _synthetic_view(n=N_VPINS, seed=0):
    rng = np.random.default_rng(seed)
    side = 500.0
    vpins = []
    for idx in range(n):
        vx, vy = rng.uniform(0, side, 2)
        vpins.append(
            VPin(
                id=idx,
                net=f"n{idx}",
                location=Point(float(vx), float(vy)),
                fragment_wirelength=float(rng.exponential(12.0)),
                pins=(),
                pin_location=Point(
                    float(np.clip(vx + rng.normal(0, 4), 0, side)),
                    float(np.clip(vy + rng.normal(0, 4), 0, side)),
                ),
                in_area=float(rng.gamma(2.0, 2.0)) if idx % 4 else 0.0,
                out_area=float(rng.gamma(2.0, 2.0)) if idx % 3 else 0.0,
                pc=float(rng.uniform(0.05, 0.95)),
                rc=float(rng.uniform(0.05, 0.95)),
            )
        )
    return SplitView(
        design_name="featurize-bench",
        split_layer=8,
        die_width=side,
        die_height=side,
        vpins=vpins,
    )


@pytest.fixture(scope="module")
def featurize_problem():
    """A view plus 1M random candidate pairs of its v-pins."""
    view = _synthetic_view()
    rng = np.random.default_rng(1)
    i = rng.integers(0, N_VPINS - 1, N_PAIRS)
    j = rng.integers(i + 1, N_VPINS, N_PAIRS)
    return view, i.astype(np.int64), j.astype(np.int64)


def test_featurize_legacy(benchmark, featurize_problem):
    view, i, j = featurize_problem
    X = benchmark.pedantic(
        lambda: compute_pair_features(view, i, j, FEATURES_11),
        rounds=3,
        iterations=1,
    )
    assert X.shape == (N_PAIRS, 11)


def _without_kernels(monkeypatch):
    monkeypatch.setattr(_ckernel, "load", lambda *args: None)


def test_featurize_fused_numpy(benchmark, featurize_problem, monkeypatch):
    view, i, j = featurize_problem
    _without_kernels(monkeypatch)
    featurizer = PairFeaturizer(view, FEATURES_11)
    out = featurizer.out_buffer(N_PAIRS)
    X = benchmark.pedantic(
        lambda: featurizer.rows_into(i, j, out), rounds=3, iterations=1
    )
    assert X.shape == (N_PAIRS, 11)


@needs_ckernel
def test_featurize_ckernel(benchmark, featurize_problem):
    view, i, j = featurize_problem
    featurizer = PairFeaturizer(view, FEATURES_11)
    out = featurizer.out_buffer(N_PAIRS)
    X = benchmark.pedantic(
        lambda: featurizer.rows_into(i, j, out), rounds=3, iterations=1
    )
    assert X.shape == (N_PAIRS, 11)


def test_featurize_speedup_meets_bar(featurize_problem):
    """C kernel >= 3x and fused NumPy >= 1.5x over the legacy
    featurizer on 1M x 11, with byte-identical matrices."""
    import time

    view, i, j = featurize_problem

    def clock(fn):
        best, result = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    has_ckernel = featurize_engine._kernel() is not None  # warms the kernel
    legacy_s, legacy = clock(
        lambda: compute_pair_features(view, i, j, FEATURES_11)
    )
    with pytest.MonkeyPatch.context() as patch:
        _without_kernels(patch)
        fused = PairFeaturizer(view, FEATURES_11)
    fused_out = fused.out_buffer(N_PAIRS)
    numpy_s, fused_X = clock(lambda: fused.rows_into(i, j, fused_out))
    assert fused_X.tobytes() == legacy.tobytes()
    numpy_speedup = legacy_s / numpy_s
    line = (
        f"\nlegacy {legacy_s:.3f}s, fused numpy {numpy_s:.3f}s "
        f"({numpy_speedup:.1f}x)"
    )
    if has_ckernel:
        compiled = PairFeaturizer(view, FEATURES_11)
        c_out = compiled.out_buffer(N_PAIRS)
        c_s, c_X = clock(lambda: compiled.rows_into(i, j, c_out))
        assert c_X.tobytes() == legacy.tobytes()
        c_speedup = legacy_s / c_s
        print(line + f", c {c_s:.3f}s ({c_speedup:.1f}x)")
        assert c_speedup >= 3.0, f"C kernel only {c_speedup:.1f}x"
    else:
        print(line)
    assert numpy_speedup >= 1.5, f"fused NumPy only {numpy_speedup:.1f}x"
