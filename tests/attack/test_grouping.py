"""``AttackResult.per_vpin_candidates`` against the per-pair oracle.

The vectorized grouping must equal :mod:`.grouping_oracle` in partner
order and dtype on every input -- duplicate pairs, self pairs
``i == j``, empty results, float32 probabilities -- and is built once
per result as read-only arrays.
"""

import numpy as np
import pytest

from repro.attack.result import AttackResult
from repro.layout.geometry import Point
from repro.splitmfg.split import SplitView, VPin

from .grouping_oracle import oracle_per_vpin_candidates


def _view(n: int) -> SplitView:
    vpins = [
        VPin(
            id=vid,
            net=f"n{vid // 2}",
            location=Point(float(vid), 0.0),
            fragment_wirelength=1.0,
            pins=(),
            pin_location=Point(float(vid), 0.0),
            in_area=1.0,
            out_area=0.0,
            matches=frozenset({vid ^ 1}),
        )
        for vid in range(n)
    ]
    return SplitView(
        design_name="t", split_layer=8, die_width=100, die_height=100, vpins=vpins
    )


def _random_result(rng: np.random.Generator) -> AttackResult:
    """Random pairs over few v-pins: duplicates, self pairs and tied
    probabilities are all common."""
    n = int(rng.integers(1, 30))
    m = int(rng.integers(0, 4 * n)) if rng.random() > 0.1 else 0
    index_dtype = rng.choice([np.int32, np.int64])
    prob_dtype = rng.choice([np.float32, np.float64])
    return AttackResult(
        view=_view(n),
        pair_i=rng.integers(0, n, m).astype(index_dtype),
        pair_j=rng.integers(0, n, m).astype(index_dtype),
        prob=(rng.integers(0, 8, m) / 7).astype(prob_dtype),
    )


def _assert_same_groups(result: AttackResult) -> None:
    groups = result.per_vpin_candidates()
    expected = oracle_per_vpin_candidates(result)
    assert len(groups) == len(expected) == result.n_vpins
    for (partners, probs), (want_partners, want_probs) in zip(groups, expected):
        assert partners.dtype == want_partners.dtype
        assert probs.dtype == want_probs.dtype
        np.testing.assert_array_equal(partners, want_partners)
        np.testing.assert_array_equal(probs, want_probs)


class TestAgainstOracle:
    def test_random_results(self):
        rng = np.random.default_rng(20261017)
        for _ in range(200):
            _assert_same_groups(_random_result(rng))

    def test_self_pairs_list_the_vpin_twice(self):
        result = AttackResult(
            view=_view(3),
            pair_i=np.array([1, 0, 1]),
            pair_j=np.array([1, 1, 2]),
            prob=np.array([0.5, 0.25, 0.75]),
        )
        _assert_same_groups(result)
        partners, probs = result.per_vpin_candidates()[1]
        assert partners.tolist() == [1, 1, 0, 2]
        assert probs.tolist() == [0.5, 0.5, 0.25, 0.75]

    def test_empty_result(self):
        result = AttackResult(
            view=_view(4),
            pair_i=np.zeros(0, dtype=int),
            pair_j=np.zeros(0, dtype=int),
            prob=np.zeros(0),
        )
        _assert_same_groups(result)

    def test_float32_probabilities_widen_exactly(self):
        prob = np.array([0.1, 0.7], dtype=np.float32)
        result = AttackResult(
            view=_view(3), pair_i=np.array([0, 2]), pair_j=np.array([2, 1]), prob=prob
        )
        _assert_same_groups(result)
        assert result.per_vpin_candidates()[2][1].tolist() == [
            float(prob[0]),
            float(prob[1]),
        ]


class TestMemoized:
    def test_groups_are_read_only(self):
        result = _random_result(np.random.default_rng(1))
        for partners, probs in result.per_vpin_candidates():
            with pytest.raises(ValueError):
                partners[:] = 0
            with pytest.raises(ValueError):
                probs[:] = 0.0

    def test_built_once_per_result(self, monkeypatch):
        result = _random_result(np.random.default_rng(2))
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k)
        )
        first = result.per_vpin_candidates()
        assert result.per_vpin_candidates() is first
        assert len(sorts) == 1
