"""Tests for the streaming top-K evaluator."""

import numpy as np
import pytest

from repro.attack import scale, topk
from repro.attack.config import IMP_9, ML_9
from repro.attack.framework import evaluate_attack, train_attack
from repro.attack.topk import TopKTracker, evaluate_attack_topk

from .topk_oracle import OracleTopKTracker, assert_same_state


class TestTracker:
    def test_exact_topk_per_vpin(self):
        rng = np.random.default_rng(0)
        n, k = 12, 3
        tracker = TopKTracker(n, k)
        i, j = np.triu_indices(n, k=1)
        p = rng.random(len(i))
        # Feed in shuffled chunks.
        order = rng.permutation(len(i))
        for chunk in np.array_split(order, 5):
            tracker.update(i[chunk], j[chunk], p[chunk])
        ti, tj, tp = tracker.harvest()
        # Reference: for each v, its top-k candidates by probability.
        prob_matrix = np.zeros((n, n))
        prob_matrix[i, j] = p
        prob_matrix[j, i] = p
        surviving = set(zip(ti.tolist(), tj.tolist()))
        for v in range(n):
            others = np.delete(np.arange(n), v)
            top = others[np.argsort(prob_matrix[v, others])[::-1][:k]]
            for u in top:
                assert (min(v, u), max(v, u)) in surviving

    def test_probabilities_match(self):
        tracker = TopKTracker(4, 2)
        tracker.update(
            np.array([0, 0, 0]), np.array([1, 2, 3]), np.array([0.9, 0.5, 0.7])
        )
        i, j, p = tracker.harvest()
        kept = dict(zip(zip(i.tolist(), j.tolist()), p.tolist()))
        assert kept[(0, 1)] == 0.9
        assert kept[(0, 3)] == 0.7
        # (0,2) is outside v0's top-2 but survives through v2's own list
        # (union semantics); its probability is preserved.
        assert kept[(0, 2)] == 0.5

    def test_eviction_outside_both_sides(self):
        """A pair outside the top-K of *both* endpoints is dropped."""
        tracker = TopKTracker(3, 1)
        tracker.update(
            np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([0.9, 0.1, 0.8])
        )
        i, j, _p = tracker.harvest()
        kept = set(zip(i.tolist(), j.tolist()))
        # v0 keeps (0,1); v1 keeps (0,1); v2 keeps (1,2): (0,2) evicted.
        assert kept == {(0, 1), (1, 2)}

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKTracker(5, 0)

    def test_empty_update(self):
        tracker = TopKTracker(3, 2)
        tracker.update(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        i, _j, _p = tracker.harvest()
        assert len(i) == 0


class TestEvaluateTopK:
    def test_matches_exact_evaluation_above_cutoff(self, views8):
        """With K >= max per-v-pin degree, streaming == exact."""
        trained = train_attack(IMP_9, views8[1:], seed=0)
        view = views8[0]
        exact = evaluate_attack(trained, view)
        streamed = evaluate_attack_topk(trained, view, k=len(view))
        assert streamed.n_pairs_evaluated == exact.n_pairs_evaluated
        assert streamed.accuracy_at_threshold(0.5) == pytest.approx(
            exact.accuracy_at_threshold(0.5)
        )
        assert streamed.mean_loc_size_at_threshold(0.5) == pytest.approx(
            exact.mean_loc_size_at_threshold(0.5)
        )

    def test_small_k_bounds_memory(self, views8):
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        streamed = evaluate_attack_topk(trained, view, k=4, chunk_size=1000)
        # At most 4 survivors per v-pin side (union-bounded).
        assert len(streamed.prob) <= 4 * len(view)
        # High-probability LoCs are preserved.
        exact = evaluate_attack(trained, view)
        assert streamed.accuracy_at_threshold(0.9) == pytest.approx(
            exact.accuracy_at_threshold(0.9), abs=0.05
        )

    def test_config_name_tagged(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        streamed = evaluate_attack_topk(trained, views8[0], k=8)
        assert streamed.config_name == "Imp-9+top8"

    def test_counts_pairs(self, views8):
        from repro.obs import get_registry

        trained = train_attack(ML_9, views8[1:], seed=0)
        before = get_registry().snapshot()["counters"]
        streamed = evaluate_attack_topk(trained, views8[0], k=4)
        after = get_registry().snapshot()["counters"]
        assert streamed.n_pairs_evaluated > 0
        for name in ("pairs_featurized", "candidates_scored"):
            delta = after.get(name, 0) - before.get(name, 0)
            assert delta == streamed.n_pairs_evaluated, name


def _tie_stream(n, n_chunks=8, chunk=400, seed=0):
    """Chunks with probabilities on a 1/8 grid, so ties straddle the K
    boundary; the i side arrives sorted (as from ``iter_all_pairs``) in
    every other chunk, the j side never."""
    rng = np.random.default_rng(seed)
    for c in range(n_chunks):
        i = rng.integers(0, n, chunk)
        if c % 2:
            i = np.sort(i)
        j = rng.integers(0, n, chunk)
        p = rng.integers(0, 9, chunk) / 8.0
        yield i, j, p


def _feed(trackers, stream):
    for i, j, p in stream:
        for tracker in trackers:
            tracker.update(i, j, p)
        yield


class TestOracle:
    """The batched merge is bit-identical to the per-v-pin oracle."""

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_tie_heavy_stream(self, k):
        tracker, oracle = TopKTracker(60, k), OracleTopKTracker(60, k)
        for _ in _feed([tracker, oracle], _tie_stream(60)):
            assert_same_state(tracker, oracle)

    def test_stream_is_tie_sensitive(self):
        """Another tie rule changes the state, so the equality above
        pins the tie rule and not only the top-K sets."""
        oracle = OracleTopKTracker(60, 16)
        stable = OracleTopKTracker(60, 16, tie_kind="stable")
        for _ in _feed([oracle, stable], _tie_stream(60)):
            pass
        np.testing.assert_array_equal(oracle._prob, stable._prob)
        assert not np.array_equal(oracle._partner, stable._partner)

    def test_k_above_candidate_count(self):
        tracker, oracle = TopKTracker(20, 50), OracleTopKTracker(20, 50)
        for _ in _feed([tracker, oracle], _tie_stream(20, chunk=60)):
            assert_same_state(tracker, oracle)
        assert (tracker._partner == -1).any()
        assert np.isneginf(tracker._prob[tracker._partner == -1]).all()

    def test_small_batches(self, monkeypatch):
        monkeypatch.setattr(topk, "MERGE_BATCH_ENTRIES", 7)
        tracker, oracle = TopKTracker(60, 5), OracleTopKTracker(60, 5)
        for _ in _feed([tracker, oracle], _tie_stream(60)):
            assert_same_state(tracker, oracle)

    def test_merge_state_of_shards(self):
        tracker, oracle = TopKTracker(60, 5), OracleTopKTracker(60, 5)
        for seed in range(3):
            shard = OracleTopKTracker(60, 5)
            for _ in _feed([shard], _tie_stream(60, n_chunks=3, seed=seed)):
                pass
            tracker.merge_state(*shard.state())
            oracle.merge_state(*shard.state())
            assert_same_state(tracker, oracle)

    def test_merge_larger_than_batch_bound(self):
        n, k = 3000, 64
        assert 2 * n * k > topk.MERGE_BATCH_ENTRIES
        rng = np.random.default_rng(3)
        tracker, oracle = TopKTracker(n, k), OracleTopKTracker(n, k)
        for _ in range(2):
            partner = rng.integers(0, n, (n, k))
            partner[rng.random((n, k)) < 0.2] = -1
            prob = np.where(partner >= 0, rng.integers(0, 9, (n, k)) / 8.0, -np.inf)
            tracker.merge_state(partner, prob)
            oracle.merge_state(partner, prob)
            assert_same_state(tracker, oracle)

    def test_scored_stream(self, views8, monkeypatch):
        """ML-9 scores through the streaming and the sharded evaluator,
        every update and shard merge checked against the oracle."""
        checked = []

        class Checked(TopKTracker):
            def __init__(self, n_vpins, k):
                super().__init__(n_vpins, k)
                self.oracle = OracleTopKTracker(n_vpins, k)
                checked.append(self)

            def update(self, i, j, p):
                super().update(i, j, p)
                self.oracle.update(i, j, p)
                assert_same_state(self, self.oracle)

            def merge_state(self, partner, prob):
                super().merge_state(partner, prob)
                self.oracle.merge_state(partner, prob)
                assert_same_state(self, self.oracle)

        monkeypatch.setattr(topk, "TopKTracker", Checked)
        monkeypatch.setattr(scale, "TopKTracker", Checked)
        trained = train_attack(ML_9, views8[1:], seed=0)
        view = views8[0]
        evaluate_attack_topk(trained, view, k=4, chunk_size=500)
        scale.evaluate_attack_scaled(trained, view, k=4, chunk_size=500, n_shards=3)
        assert len(checked) == 1 + 3 + 1
