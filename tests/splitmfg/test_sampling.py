"""Tests for sample generation and neighborhood machinery."""

import dataclasses

import numpy as np
import pytest

from repro.splitmfg.pair_features import FEATURES_9, FEATURES_11
from repro.splitmfg.sampling import (
    NeighborhoodIndex,
    build_training_set,
    iter_all_pairs,
    neighborhood_fraction,
    neighborhood_negative_pairs,
    neighborhood_radius,
    positive_pairs,
    random_negative_pairs,
)

from .sampling_oracle import (
    oracle_neighborhood_negative_pairs,
    oracle_neighbors_of,
)


class TestPositivePairs:
    def test_match_and_legal(self, view8):
        i, j = positive_pairs(view8)
        assert len(i) > 0
        arr = view8.arrays()
        for a, b in zip(i, j):
            assert a < b
            assert b in view8.vpins[a].matches
            assert not (arr["out_area"][a] > 0 and arr["out_area"][b] > 0)


class TestRandomNegativePairs:
    def test_non_matching_and_legal(self, view8):
        rng = np.random.default_rng(0)
        i, j = random_negative_pairs(view8, 50, rng)
        assert len(i) == 50
        arr = view8.arrays()
        for a, b in zip(i, j):
            assert a != b
            assert b not in view8.vpins[a].matches
            assert not (arr["out_area"][a] > 0 and arr["out_area"][b] > 0)

    def test_respects_allowed_mask(self, view8):
        rng = np.random.default_rng(1)
        allowed = np.zeros(len(view8), dtype=bool)
        allowed[: len(view8) // 2] = True
        i, j = random_negative_pairs(view8, 30, rng, allowed=allowed)
        assert allowed[i].all() and allowed[j].all()

    def test_aligned_negatives(self, view8):
        rng = np.random.default_rng(2)
        i, j = random_negative_pairs(view8, 20, rng, y_aligned_only=True)
        if len(i):
            arr = view8.arrays()
            assert (np.abs(arr["vy"][i] - arr["vy"][j]) <= 1e-6).all()

    def test_empty_view(self, view8):
        rng = np.random.default_rng(0)
        i, j = random_negative_pairs(view8, 0, rng)
        assert len(i) == len(j) == 0


def _half_mask(view):
    allowed = np.zeros(len(view), dtype=bool)
    allowed[: max(2, len(view) // 2)] = True
    return allowed


class TestNegativePairProperties:
    """Every sampler emission is a unique, canonical, legal negative.

    Exercises the full grid of alignment flags and allowed masks for both
    the uniform and the neighborhood sampler: a duplicated or mirrored
    ``(j, i)`` emission would silently overweight negatives in the
    "balanced" training set.
    """

    ALIGNMENTS = [
        {},
        {"y_aligned_only": True},
        {"x_aligned_only": True},
    ]

    def _check(self, view, i, j):
        arr = view.arrays()
        pairs = list(zip(i.tolist(), j.tolist()))
        assert all(a < b for a, b in pairs), "pairs must be canonical i < j"
        assert len(set(pairs)) == len(pairs), "pairs must be unique"
        for a, b in pairs:
            assert b not in view.vpins[a].matches
            assert not (arr["out_area"][a] > 0 and arr["out_area"][b] > 0)

    @pytest.mark.parametrize("alignment", ALIGNMENTS, ids=["free", "y", "x"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    def test_random_negatives(self, view8, alignment, masked):
        rng = np.random.default_rng(10)
        allowed = _half_mask(view8) if masked else None
        i, j = random_negative_pairs(view8, 60, rng, allowed=allowed, **alignment)
        self._check(view8, i, j)
        if allowed is not None and len(i):
            assert allowed[i].all() and allowed[j].all()

    @pytest.mark.parametrize("alignment", ALIGNMENTS, ids=["free", "y", "x"])
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    def test_neighborhood_negatives(self, view8, alignment, masked):
        rng = np.random.default_rng(11)
        index = NeighborhoodIndex(view8, 0.4 * view8.half_perimeter)
        allowed = _half_mask(view8) if masked else None
        i, j = neighborhood_negative_pairs(
            view8, 60, index, rng, allowed=allowed, **alignment
        )
        self._check(view8, i, j)
        if allowed is not None and len(i):
            assert allowed[i].all() and allowed[j].all()

    def test_count_capped_by_distinct_pairs(self, view8):
        """Asking for more negatives than exist terminates with unique pairs."""
        rng = np.random.default_rng(12)
        allowed = np.zeros(len(view8), dtype=bool)
        allowed[:4] = True
        i, j = random_negative_pairs(view8, 1000, rng, allowed=allowed)
        pairs = set(zip(i.tolist(), j.tolist()))
        assert len(pairs) == len(i) <= 6  # C(4, 2) minus matches/illegal


class TestDegenerateDie:
    def test_neighborhood_fraction_rejects_zero_half_perimeter(self, views8):
        flat = dataclasses.replace(views8[0], die_width=0.0, die_height=0.0)
        with pytest.raises(ValueError, match="degenerate die"):
            neighborhood_fraction([flat] + list(views8[1:]))

    def test_neighborhood_radius_rejects_zero_half_perimeter(self, view8):
        flat = dataclasses.replace(view8, die_width=0.0, die_height=0.0)
        with pytest.raises(ValueError, match="degenerate die"):
            neighborhood_radius(flat, 0.1)

    def test_negative_half_perimeter_also_rejected(self, view8):
        warped = dataclasses.replace(view8, die_width=-5.0, die_height=2.0)
        with pytest.raises(ValueError, match="degenerate die"):
            neighborhood_radius(warped, 0.1)


class TestNeighborhood:
    def test_fraction_is_percentile(self, views8):
        f90 = neighborhood_fraction(views8, 90.0)
        f50 = neighborhood_fraction(views8, 50.0)
        assert 0 < f50 < f90
        pooled = np.concatenate(
            [v.match_distances() / v.half_perimeter for v in views8]
        )
        assert f90 == pytest.approx(np.percentile(pooled, 90.0))

    def test_radius_rescales(self, view8):
        assert neighborhood_radius(view8, 0.1) == pytest.approx(
            0.1 * view8.half_perimeter
        )

    def test_index_neighbors_within_radius(self, view8):
        radius = 0.2 * view8.half_perimeter
        index = NeighborhoodIndex(view8, radius)
        arr = view8.arrays()
        owners = np.arange(0, len(view8), 7)
        offsets, flat = index.neighbors(owners)
        for k, i in enumerate(owners):
            neighbors = flat[offsets[k] : offsets[k + 1]]
            assert i not in neighbors
            d = np.abs(arr["vx"][neighbors] - arr["vx"][i]) + np.abs(
                arr["vy"][neighbors] - arr["vy"][i]
            )
            assert (d <= radius + 1e-9).all()

    def test_candidate_pairs_legal_and_bounded(self, view8):
        radius = 0.15 * view8.half_perimeter
        index = NeighborhoodIndex(view8, radius)
        i, j = index.candidate_pairs()
        arr = view8.arrays()
        d = np.abs(arr["vx"][i] - arr["vx"][j]) + np.abs(
            arr["vy"][i] - arr["vy"][j]
        )
        assert (d <= radius + 1e-9).all()
        assert not ((arr["out_area"][i] > 0) & (arr["out_area"][j] > 0)).any()

    def test_neighborhood_negatives_inside_radius(self, view8):
        rng = np.random.default_rng(3)
        radius = 0.3 * view8.half_perimeter
        index = NeighborhoodIndex(view8, radius)
        i, j = neighborhood_negative_pairs(view8, 40, index, rng)
        arr = view8.arrays()
        d = np.abs(arr["vx"][i] - arr["vx"][j]) + np.abs(
            arr["vy"][i] - arr["vy"][j]
        )
        assert (d <= radius + 1e-9).all()
        for a, b in zip(i, j):
            assert b not in view8.vpins[a].matches


class TestIterAllPairs:
    def test_covers_all_pairs_once(self):
        seen = set()
        for i, j in iter_all_pairs(17, chunk_size=20):
            for a, b in zip(i, j):
                assert a < b
                seen.add((int(a), int(b)))
        assert len(seen) == 17 * 16 // 2

    def test_small_n(self):
        assert list(iter_all_pairs(1)) == []
        chunks = list(iter_all_pairs(2))
        assert len(chunks) == 1


def _legacy_iter_all_pairs(n, chunk_size=500_000):
    """The seed's per-row accumulation loop, kept as the oracle for the
    arithmetic chunk generation (boundaries and order must be identical)."""
    if n < 2:
        return
    buffer_i, buffer_j, buffered = [], [], 0
    for row in range(n - 1):
        js = np.arange(row + 1, n)
        buffer_i.append(np.full(len(js), row, dtype=int))
        buffer_j.append(js)
        buffered += len(js)
        if buffered >= chunk_size:
            yield np.concatenate(buffer_i), np.concatenate(buffer_j)
            buffer_i, buffer_j, buffered = [], [], 0
    if buffered:
        yield np.concatenate(buffer_i), np.concatenate(buffer_j)


class TestIterAllPairsEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 357])
    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 500, 501, 500_000])
    def test_chunks_identical_to_legacy_loop(self, n, chunk_size):
        new = list(iter_all_pairs(n, chunk_size))
        old = list(_legacy_iter_all_pairs(n, chunk_size))
        assert len(new) == len(old)
        for (ni, nj), (oi, oj) in zip(new, old):
            assert ni.dtype == np.int64 and nj.dtype == np.int64
            assert np.array_equal(ni, oi)
            assert np.array_equal(nj, oj)


def _legacy_neighborhood_negative_pairs(
    view,
    count,
    index,
    rng,
    y_aligned_only=False,
    x_aligned_only=False,
    max_tries_factor=50,
    allowed=None,
):
    """The seed's one-candidate-per-iteration rejection loop, kept as the
    distribution oracle for the batched sampler."""
    n = len(view)
    if n < 2 or count <= 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    arr = view.arrays()
    out_area = arr["out_area"]
    out_i, out_j, tries = [], [], 0
    limit = count * max_tries_factor
    seen = set()
    neighbor_cache = {}
    pool = np.arange(n) if allowed is None else np.nonzero(allowed)[0]
    if len(pool) < 2:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    while len(out_i) < count and tries < limit:
        tries += 1
        i = int(pool[rng.integers(len(pool))])
        neighbors = neighbor_cache.get(i)
        if neighbors is None:
            neighbors = oracle_neighbors_of(index, i)
            if allowed is not None and len(neighbors):
                neighbors = neighbors[allowed[neighbors]]
            if y_aligned_only and len(neighbors):
                aligned = np.abs(arr["vy"][neighbors] - arr["vy"][i]) <= 1e-6
                neighbors = neighbors[aligned]
            if x_aligned_only and len(neighbors):
                aligned = np.abs(arr["vx"][neighbors] - arr["vx"][i]) <= 1e-6
                neighbors = neighbors[aligned]
            neighbor_cache[i] = neighbors
        if len(neighbors) == 0:
            continue
        j = int(neighbors[rng.integers(len(neighbors))])
        if j in view.vpins[i].matches:
            continue
        if out_area[i] > 0 and out_area[j] > 0:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            continue
        seen.add(pair)
        out_i.append(pair[0])
        out_j.append(pair[1])
    return np.array(out_i, dtype=int), np.array(out_j, dtype=int)


class TestNeighborhoodSamplerEquivalence:
    """The batched rejection sampler is output-distribution equivalent to
    the seed's sequential loop (the RNG draw sequence itself differs:
    batches draw i's and j-uniforms up front)."""

    def test_deterministic_per_seed(self, view8):
        index = NeighborhoodIndex(view8, 0.4 * view8.half_perimeter)
        a = neighborhood_negative_pairs(
            view8, 40, index, np.random.default_rng(3)
        )
        b = neighborhood_negative_pairs(
            view8, 40, index, np.random.default_rng(3)
        )
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_exhaustive_draw_matches_legacy_set(self, view8):
        """With enough tries both samplers enumerate exactly the eligible
        pair set, so the supports must coincide."""
        index = NeighborhoodIndex(view8, 0.4 * view8.half_perimeter)
        new_i, new_j = neighborhood_negative_pairs(
            view8, 10_000, index, np.random.default_rng(0),
            max_tries_factor=500,
        )
        old_i, old_j = _legacy_neighborhood_negative_pairs(
            view8, 10_000, index, np.random.default_rng(0),
            max_tries_factor=500,
        )
        assert len(new_i) > 0
        assert set(zip(new_i.tolist(), new_j.tolist())) == set(
            zip(old_i.tolist(), old_j.tolist())
        )

    def test_first_draw_frequencies_match_legacy(self, view8):
        """count=1 output frequencies agree within sampling noise: the
        total-variation distance between the two empirical distributions
        stays near the ~sqrt(support/trials) noise floor."""
        index = NeighborhoodIndex(view8, 0.4 * view8.half_perimeter)
        trials = 1500
        freq_new: dict[tuple[int, int], int] = {}
        freq_old: dict[tuple[int, int], int] = {}
        for seed in range(trials):
            i, j = neighborhood_negative_pairs(
                view8, 1, index, np.random.default_rng(50_000 + seed)
            )
            if len(i):
                key = (int(i[0]), int(j[0]))
                freq_new[key] = freq_new.get(key, 0) + 1
            i, j = _legacy_neighborhood_negative_pairs(
                view8, 1, index, np.random.default_rng(50_000 + seed)
            )
            if len(i):
                key = (int(i[0]), int(j[0]))
                freq_old[key] = freq_old.get(key, 0) + 1
        support = set(freq_new) | set(freq_old)
        assert support
        tv = 0.5 * sum(
            abs(freq_new.get(k, 0) - freq_old.get(k, 0)) / trials
            for k in support
        )
        noise_floor = np.sqrt(len(support) / trials)
        assert tv < 2 * noise_floor, (tv, noise_floor)


class TestNeighborhoodSamplerOracle:
    """The CSR sampler equals :mod:`.sampling_oracle` exactly: the same
    pairs in the same order, and the same generator state after."""

    @staticmethod
    def _check(view, count, index, seed, **flags):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = neighborhood_negative_pairs(view, count, index, ours, **flags)
        want = oracle_neighborhood_negative_pairs(view, count, index, theirs, **flags)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state
        return got

    def test_neighbor_lists_in_single_query_order(self, view8):
        index = NeighborhoodIndex(view8, 0.3 * view8.half_perimeter)
        owners = np.array([5, 0, 5, len(view8) - 1, 3])
        offsets, flat = index.neighbors(owners)
        for k, i in enumerate(owners):
            assert flat[offsets[k] : offsets[k + 1]].tolist() == (
                oracle_neighbors_of(index, i).tolist()
            )

    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.6])
    @pytest.mark.parametrize(
        "flags", [{}, {"y_aligned_only": True}, {"x_aligned_only": True}]
    )
    def test_matches_oracle(self, views8, fraction, flags):
        for seed, view in enumerate(views8):
            index = NeighborhoodIndex(view, fraction * view.half_perimeter)
            self._check(view, len(view) // 2, index, seed, **flags)

    def test_allowed_mask_and_many_batches(self, views8):
        rng = np.random.default_rng(11)
        for seed, view in enumerate(views8):
            index = NeighborhoodIndex(view, 0.25 * view.half_perimeter)
            allowed = rng.random(len(view)) < 0.7
            # count > 128 with a tight try budget: several batches, and
            # the budget can run out before the count is reached.
            for factor in (1, 2, 50):
                self._check(
                    view, 400, index, seed, allowed=allowed, max_tries_factor=factor
                )

    def test_degenerate_inputs(self, view8):
        index = NeighborhoodIndex(view8, 0.0)
        assert len(self._check(view8, 10, index, 0)[0]) == 0
        tiny = NeighborhoodIndex(view8, 0.3 * view8.half_perimeter)
        self._check(view8, 0, tiny, 0)
        allowed = np.zeros(len(view8), dtype=bool)
        allowed[:1] = True
        self._check(view8, 10, tiny, 0, allowed=allowed)


class TestBuildTrainingSet:
    def test_balanced(self, views8):
        rng = np.random.default_rng(4)
        ts = build_training_set(views8, FEATURES_9, rng)
        assert ts.X.shape[1] == 9
        assert ts.n_positive == pytest.approx(ts.n_samples / 2, abs=2)

    def test_neighborhood_variant(self, views8):
        rng = np.random.default_rng(5)
        fraction = neighborhood_fraction(views8, 90.0)
        ts = build_training_set(views8, FEATURES_11, rng, neighborhood=fraction)
        assert ts.X.shape[1] == 11
        assert ts.n_samples > 0

    def test_aligned_variant(self, views8):
        rng = np.random.default_rng(6)
        ts = build_training_set(views8, FEATURES_9, rng, y_aligned_only=True)
        # All positives are aligned at layer 8, so they all survive.
        total_positives = sum(len(positive_pairs(v)[0]) for v in views8)
        assert ts.n_positive == total_positives

    def test_allowed_masks(self, views8):
        rng = np.random.default_rng(7)
        masks = [np.zeros(len(v), dtype=bool) for v in views8]
        for mask in masks:
            mask[: len(mask) // 2] = True
        ts = build_training_set(views8, FEATURES_9, rng, allowed=masks)
        full = build_training_set(views8, FEATURES_9, np.random.default_rng(7))
        assert ts.n_samples < full.n_samples

    def test_mask_length_mismatch(self, views8):
        with pytest.raises(ValueError):
            build_training_set(
                views8,
                FEATURES_9,
                np.random.default_rng(0),
                allowed=[np.ones(1, dtype=bool)],
            )
