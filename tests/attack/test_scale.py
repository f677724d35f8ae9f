"""Tests for the sharded paper-scale evaluator."""

import numpy as np
import pytest

from repro.attack.config import IMP_9, ML_9
from repro.attack.framework import train_attack
from repro.attack.scale import evaluate_attack_scaled, shard_rows
from repro.attack.topk import evaluate_attack_topk
from repro.obs import get_registry
from repro.runtime import FeatureCache


class TestShardRows:
    def test_covers_all_rows_without_overlap(self):
        for n in (2, 10, 101):
            for n_shards in (1, 3, 8):
                shards = shard_rows(n, n_shards)
                assert len(shards) == n_shards
                assert shards[0][0] == 0
                assert shards[-1][1] == n - 1
                for (_, prev_hi), (lo, _) in zip(shards, shards[1:]):
                    assert lo == prev_hi  # contiguous, half-open

    def test_balanced_by_pair_count(self):
        n, n_shards = 1000, 4
        shards = shard_rows(n, n_shards)
        total = n * (n - 1) // 2

        def pairs(lo, hi):
            return sum(n - 1 - r for r in range(lo, hi))

        for lo, hi in shards:
            assert pairs(lo, hi) <= 1.25 * total / n_shards
        # Equal-row cuts would give the first shard ~44% of the pairs.
        assert pairs(*shards[0]) < 0.3 * total

    def test_more_shards_than_rows(self):
        shards = shard_rows(3, 10)
        assert len(shards) == 10
        assert shards[0][0] == 0 and shards[-1][1] == 2

    def test_degenerate_sizes(self):
        assert shard_rows(0, 2) == [(0, 0), (0, 0)]
        assert shard_rows(1, 2) == [(0, 0), (0, 0)]
        with pytest.raises(ValueError):
            shard_rows(10, 0)


class TestEvaluateScaled:
    def test_single_shard_matches_topk(self, views8):
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        streamed = evaluate_attack_topk(trained, view, k=8)
        sharded = evaluate_attack_scaled(trained, view, k=8, n_shards=1)
        assert sharded.n_pairs_evaluated == streamed.n_pairs_evaluated
        np.testing.assert_array_equal(sharded.pair_i, streamed.pair_i)
        np.testing.assert_array_equal(sharded.pair_j, streamed.pair_j)
        np.testing.assert_array_equal(sharded.prob, streamed.prob)

    def test_jobs_invariance(self, views8):
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        serial = evaluate_attack_scaled(trained, view, k=6, n_shards=3, jobs=1)
        pooled = evaluate_attack_scaled(trained, view, k=6, n_shards=3, jobs=2)
        np.testing.assert_array_equal(serial.pair_i, pooled.pair_i)
        np.testing.assert_array_equal(serial.pair_j, pooled.pair_j)
        np.testing.assert_array_equal(serial.prob, pooled.prob)
        assert serial.n_pairs_evaluated == pooled.n_pairs_evaluated

    def test_cache_restored_model_ships_to_pool(self, views8, tmp_path):
        """A model restored from the feature cache pickles to pool
        workers: no shard is retried or degraded to in-process."""
        cache = FeatureCache(tmp_path)
        fresh = train_attack(ML_9, views8[1:], seed=0, cache=cache)
        restored = train_attack(ML_9, views8[1:], seed=0, cache=cache)
        # A hit reports the stored fit time; a refit would measure anew.
        assert restored.model is not fresh.model
        assert restored.train_time == fresh.train_time
        view = views8[0]
        expected = evaluate_attack_scaled(fresh, view, k=6, n_shards=2, jobs=1)
        get_registry().reset()
        pooled = evaluate_attack_scaled(restored, view, k=6, n_shards=2, jobs=2)
        counters = get_registry().snapshot()["counters"]
        assert counters.get("task_retries", 0) == 0
        assert counters.get("tasks_degraded_serial", 0) == 0
        np.testing.assert_array_equal(expected.pair_i, pooled.pair_i)
        np.testing.assert_array_equal(expected.pair_j, pooled.pair_j)
        np.testing.assert_array_equal(expected.prob, pooled.prob)

    def test_sharding_preserves_pair_count(self, views8):
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        one = evaluate_attack_scaled(trained, view, k=4, n_shards=1)
        many = evaluate_attack_scaled(trained, view, k=4, n_shards=5)
        assert one.n_pairs_evaluated == many.n_pairs_evaluated

    def test_small_chunks_match_large(self, views8):
        # With k >= n-1 nothing is ever evicted, so the result must be
        # exactly chunk-size invariant.  Below that, which of several
        # candidates tied at the K-th best probability survives is up to
        # NumPy's unstable argsort over [stored K, then arrivals], so it
        # depends on chunk_size (see TopKTracker).
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        k = len(view)
        big = evaluate_attack_scaled(trained, view, k=k, chunk_size=10_000)
        small = evaluate_attack_scaled(trained, view, k=k, chunk_size=17)
        np.testing.assert_array_equal(big.pair_i, small.pair_i)
        np.testing.assert_array_equal(big.pair_j, small.pair_j)
        np.testing.assert_array_equal(big.prob, small.prob)

    def test_rejects_neighborhood_config(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        with pytest.raises(ValueError, match="all-pairs"):
            evaluate_attack_scaled(trained, views8[0])
