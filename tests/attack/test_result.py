"""Exact tests of the LoC/accuracy machinery on a synthetic result."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.result import AttackResult, summarize
from repro.layout.geometry import Point
from repro.splitmfg.split import SplitView, VPin


def _view(n=4):
    """n v-pins where (0,1) and (2,3) are the true matches."""
    vpins = []
    for vid in range(n):
        vpins.append(
            VPin(
                id=vid,
                net=f"n{vid // 2}",
                location=Point(float(vid * 10), 0.0),
                fragment_wirelength=1.0,
                pins=(),
                pin_location=Point(float(vid * 10), 0.0),
                in_area=1.0,
                out_area=0.0,
                matches=frozenset({vid ^ 1}),
            )
        )
    return SplitView(
        design_name="t", split_layer=8, die_width=100, die_height=100, vpins=vpins
    )


@pytest.fixture()
def result():
    view = _view()
    # Pairs: (0,1) p=.9 true; (0,2) p=.6; (2,3) p=.4 true; (1,3) p=.2
    return AttackResult(
        view=view,
        pair_i=np.array([0, 0, 2, 1]),
        pair_j=np.array([1, 2, 3, 3]),
        prob=np.array([0.9, 0.6, 0.4, 0.2]),
        config_name="test",
    )


class TestExactMath:
    def test_is_match(self, result):
        assert list(result.is_match()) == [True, False, True, False]

    def test_cover_probability(self, result):
        assert list(result.cover_probability()) == [0.9, 0.9, 0.4, 0.4]

    def test_accuracy_at_threshold(self, result):
        assert result.accuracy_at_threshold(0.95) == 0.0
        assert result.accuracy_at_threshold(0.5) == 0.5
        assert result.accuracy_at_threshold(0.3) == 1.0

    def test_mean_loc_size(self, result):
        # At t=0.5, two pairs kept -> 4 memberships over 4 v-pins.
        assert result.mean_loc_size_at_threshold(0.5) == 1.0
        assert result.mean_loc_size_at_threshold(0.0) == 2.0
        assert result.mean_loc_size_at_threshold(1.0) == 0.0

    def test_saturation(self, result):
        assert result.saturation_accuracy() == 1.0

    def test_saturation_with_missing_match(self):
        view = _view()
        partial = AttackResult(
            view=view,
            pair_i=np.array([0]),
            pair_j=np.array([1]),
            prob=np.array([0.9]),
        )
        assert partial.saturation_accuracy() == 0.5
        # Never-evaluated matches stay uncovered even at threshold -inf.
        assert partial.accuracy_at_threshold(-np.inf) == 0.5

    def test_n_matched_vpins_skips_dummies(self):
        """Only v-pins with a hidden connection count, as in the loop
        ``sum(1 for v in view.vpins if v.matches)``."""
        view = _view(6)
        for k in (4, 5):
            view.vpins[k] = dataclasses.replace(view.vpins[k], matches=frozenset())
        view.invalidate_cache()
        empty = np.zeros(0, dtype=int)
        result = AttackResult(view=view, pair_i=empty, pair_j=empty, prob=np.zeros(0))
        assert result.n_matched_vpins == sum(1 for v in view.vpins if v.matches) == 4
        no_vpins = AttackResult(
            view=_view(0), pair_i=empty, pair_j=empty, prob=np.zeros(0)
        )
        assert no_vpins.n_matched_vpins == 0

    def test_threshold_for_accuracy(self, result):
        assert result.threshold_for_accuracy(0.5) == pytest.approx(0.9)
        assert result.threshold_for_accuracy(1.0) == pytest.approx(0.4)

    def test_threshold_for_loc_fraction(self, result):
        n = result.n_vpins
        # fraction such that exactly 2 pairs are kept
        fraction = 2 * 2 / (n * n)
        t = result.threshold_for_loc_fraction(fraction)
        assert (result.prob >= t).sum() == 2

    def test_inverse_consistency(self, result):
        for accuracy in (0.5, 1.0):
            t = result.threshold_for_accuracy(accuracy)
            assert result.accuracy_at_threshold(t) >= accuracy

    def test_accuracy_at_mean_loc_size(self, result):
        assert result.accuracy_at_mean_loc_size(1.0) == 0.5

    def test_per_vpin_candidates(self, result):
        candidates = result.per_vpin_candidates()
        partners0, probs0 = candidates[0]
        assert set(partners0) == {1, 2}
        assert set(probs0) == {0.9, 0.6}
        partners3, _ = candidates[3]
        assert set(partners3) == {2, 1}

    def test_curve_monotone(self, result):
        fractions, accuracies = result.curve(np.logspace(-3, 0, 10))
        assert (np.diff(accuracies) >= -1e-12).all()


class TestSummarize:
    def test_summary_fields(self, result):
        summary = summarize(result)
        assert summary.design_name == "t"
        assert summary.n_vpins == 4
        assert summary.accuracy_at_default_threshold == 0.5
        assert summary.loc_at_default_threshold == 1.0
        assert len(summary.curve_fractions) == len(summary.curve_accuracies)


class TestProperties:
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_loc_size_monotone_in_threshold(self, probs, seed):
        rng = np.random.default_rng(seed)
        n = 10
        view = _view(n)
        m = len(probs)
        i = rng.integers(0, n - 1, size=m)
        j = i + 1 + rng.integers(0, n - 1, size=m)
        j = np.minimum(j, n - 1)
        keep = i < j
        result = AttackResult(
            view=view,
            pair_i=i[keep],
            pair_j=j[keep],
            prob=np.array(probs)[keep],
        )
        thresholds = np.linspace(0, 1, 7)
        sizes = [result.mean_loc_size_at_threshold(t) for t in thresholds]
        accs = [result.accuracy_at_threshold(t) for t in thresholds]
        assert sizes == sorted(sizes, reverse=True)
        assert accs == sorted(accs, reverse=True)
