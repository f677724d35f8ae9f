"""Cross-cutting determinism guarantees of the runtime layer.

The contract: ``--jobs N`` and a warm/cold/absent feature cache must all
produce bit-identical attack results.  These tests pin that down at the
``run_loo`` level; ``tests/experiments/test_run_all.py`` pins it at the
whole-report level.
"""

import numpy as np
import pytest

from repro.attack.config import IMP_9, ML_9
from repro.attack.framework import evaluate_attack, run_loo, train_attack
from repro.runtime import FeatureCache, set_default_cache


def _assert_results_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.view.design_name == b.view.design_name
        np.testing.assert_array_equal(a.pair_i, b.pair_i)
        np.testing.assert_array_equal(a.pair_j, b.pair_j)
        np.testing.assert_array_equal(a.prob, b.prob)


#: The neural backend rides the same fold seeding, so --jobs must be a
#: no-op for it too (MLP training itself is single-process NumPy).
MLP_9 = IMP_9.with_backend(
    "mlp", hidden_layers=(8,), max_epochs=12, batch_size=64, patience=4
)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("config", [IMP_9, MLP_9], ids=lambda c: c.name)
    def test_run_loo_jobs_bit_identical(self, views8, config):
        serial = run_loo(config, views8, seed=11, jobs=1)
        parallel = run_loo(config, views8, seed=11, jobs=2)
        _assert_results_identical(serial, parallel)

    def test_fold_seeds_order_independent(self, views8):
        """Fold 2 alone reproduces fold 2 of the full serial run."""
        from repro.attack.framework import _run_loo_fold
        from repro.runtime import spawn_seeds

        serial = run_loo(IMP_9, views8, seed=5, jobs=1)
        seeds = spawn_seeds(5, len(views8))
        lone = _run_loo_fold((IMP_9, views8, 2, seeds[2], 400_000, None))
        np.testing.assert_array_equal(lone.prob, serial[2].prob)


class TestCacheTransparency:
    def test_cold_warm_and_uncached_identical(self, views8, tmp_path):
        cache = FeatureCache(tmp_path / "features")
        uncached = run_loo(IMP_9, views8, seed=7)
        cold = run_loo(IMP_9, views8, seed=7, cache=cache)
        assert cache.misses > 0 and len(cache) > 0
        hits_before = cache.hits
        warm = run_loo(IMP_9, views8, seed=7, cache=cache)
        assert cache.hits > hits_before
        _assert_results_identical(uncached, cold)
        _assert_results_identical(cold, warm)

    def test_seed_changes_training_key(self, views8, tmp_path):
        cache = FeatureCache(tmp_path)
        train_attack(IMP_9, views8[:2], seed=0, cache=cache)
        misses = cache.misses
        train_attack(IMP_9, views8[:2], seed=1, cache=cache)
        assert cache.misses > misses  # different seed, different entry

    def test_mutated_view_misses(self, views8, tmp_path, monkeypatch):
        """In-place edits (via invalidate_cache) change the model key."""
        import copy

        from repro.ml.bagging import Bagging

        cache = FeatureCache(tmp_path)
        fits = []
        fit = Bagging.fit
        monkeypatch.setattr(
            Bagging, "fit", lambda self, X, y: fits.append(1) or fit(self, X, y)
        )
        train_attack(IMP_9, views8[:2], seed=0, cache=cache)
        mutated = copy.deepcopy(views8[1])
        mutated.vpins[0].rc += 1.0
        mutated.invalidate_cache()
        misses = cache.misses
        train_attack(IMP_9, [views8[0], mutated], seed=0, cache=cache)
        assert cache.misses > misses
        assert len(fits) == 2

    def test_run_loo_caches_fitted_models_only(self, views8, tmp_path):
        """Training sets and candidate matrices are never entries."""
        cache = FeatureCache(tmp_path)
        run_loo(ML_9, views8, seed=3, cache=cache)
        run_loo(IMP_9, views8, seed=3, cache=cache)
        entries = cache.entries()
        assert len(entries) == 2 * len(views8)
        for path in entries:
            assert "params" in cache.get(path.stem), path.name

    def test_evaluate_makes_no_cache_call(self, views8, tmp_path, monkeypatch):
        cache = FeatureCache(tmp_path)
        set_default_cache(cache)
        trained = train_attack(IMP_9, views8[:2], seed=0)
        calls = []
        for name in ("get", "put", "get_chunk", "put_chunk"):
            monkeypatch.setattr(
                FeatureCache, name, lambda *a, _n=name, **k: calls.append(_n)
            )
        evaluate_attack(trained, views8[2])
        assert calls == []
