"""Bench: the repro.runtime execution layer (pool + feature cache).

Three timed variants of the same LOOCV workload:

* serial, no cache -- the pre-runtime baseline;
* parallel (``jobs = cpu_count``), no cache -- pool speedup;
* serial, warm cache -- fitted-model memoization speedup.

Correctness (bit-identical results across all three) is asserted
unconditionally.  The >= 2x parallel-speedup acceptance criterion only
makes sense with real cores to spend, so that assertion is gated on
``os.cpu_count() >= 4``; single-core CI still measures and reports the
timings.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.attack.config import IMP_9
from repro.attack.framework import run_loo
from repro.runtime import FeatureCache

from benchmarks.conftest import BENCH_SCALE


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _probs(results):
    return [r.prob for r in results]


def test_runtime_serial_parallel_warm(benchmark, views8, tmp_path_factory):
    cores = os.cpu_count() or 1
    cache = FeatureCache(tmp_path_factory.mktemp("bench-feature-cache"))

    serial, t_serial = _timed(
        lambda: run_loo(IMP_9, views8, seed=0, jobs=1, cache=None)
    )
    parallel, t_parallel = _timed(
        lambda: run_loo(IMP_9, views8, seed=0, jobs=cores, cache=None)
    )
    cold, t_cold = _timed(
        lambda: run_loo(IMP_9, views8, seed=0, jobs=1, cache=cache)
    )
    warm, t_warm = benchmark.pedantic(
        lambda: _timed(lambda: run_loo(IMP_9, views8, seed=0, jobs=1, cache=cache)),
        rounds=1,
        iterations=1,
    )

    # Correctness first: every variant is bit-identical.
    for variant in (parallel, cold, warm):
        for a, b in zip(serial, variant):
            np.testing.assert_array_equal(a.pair_i, b.pair_i)
            np.testing.assert_array_equal(a.pair_j, b.pair_j)
            np.testing.assert_array_equal(a.prob, b.prob)
    assert cache.hits > 0  # the warm run actually used the cache

    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["serial_seconds"] = round(t_serial, 3)
    benchmark.extra_info["parallel_seconds"] = round(t_parallel, 3)
    benchmark.extra_info["cold_cache_seconds"] = round(t_cold, 3)
    benchmark.extra_info["warm_cache_seconds"] = round(t_warm, 3)

    # The warm cache skips fitting; it must never lose to cold.
    assert t_warm <= t_cold * 1.25

    if cores >= 4:
        # Acceptance: >= 2x at jobs=4+ (only meaningful with real cores;
        # on smaller machines the timings above are recorded but the
        # speedup is not asserted).
        assert t_serial / t_parallel >= 2.0
