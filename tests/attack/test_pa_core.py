"""The one-pass proximity-attack core against the per-target oracle.

:func:`~repro.attack.proximity.pa_success_rates`,
:func:`~repro.attack.proximity.pa_success_rate` and
:func:`~repro.attack.proximity.proximity_picks` must equal
:mod:`.pa_oracle` on every input -- rates or picks, and the generator's
state after the call -- including probabilities tied at the top-K
boundary, PA-LoCs that hold every candidate (``k >= m``), the threshold
rule, self pairs ``(v, v)``, duplicate and unsorted targets.
"""

import numpy as np
import pytest

from repro.attack import proximity
from repro.attack.config import IMP_9
from repro.attack.framework import evaluate_attack, train_attack
from repro.attack.proximity import (
    DEFAULT_PA_FRACTIONS,
    pa_success_rate,
    pa_success_rates,
    proximity_picks,
)
from repro.attack.result import AttackResult
from repro.layout.geometry import Point
from repro.splitmfg.split import SplitView, VPin

from .pa_oracle import oracle_pa_success_rate, oracle_proximity_picks

FRACTIONS = (0.001, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
THRESHOLDS = (0.0, 0.3, 0.5, 1.0)


def _random_result(rng: np.random.Generator) -> AttackResult:
    """Few v-pins on a coarse grid (distance ties), probabilities in
    tenths (boundary and pick ties), duplicate and self pairs, and
    v-pins without a match."""
    n = int(rng.integers(1, 40))
    grid = int(rng.integers(1, 6))
    locations = rng.integers(0, grid, size=(n, 2)) * 10.0
    matches: dict[int, set[int]] = {}
    for v in range(n):
        u = int(rng.integers(n))
        if u != v and rng.random() < 0.8:
            matches.setdefault(v, set()).add(u)
            matches.setdefault(u, set()).add(v)
    vpins = [
        VPin(
            id=v,
            net=f"n{v}",
            location=Point(*locations[v]),
            fragment_wirelength=0.0,
            pins=(),
            pin_location=Point(*locations[v]),
            in_area=1.0,
            out_area=0.0,
            matches=frozenset(matches.get(v, ())),
        )
        for v in range(n)
    ]
    view = SplitView(
        design_name="t", split_layer=8, die_width=100, die_height=100, vpins=vpins
    )
    m = int(rng.integers(0, 2 * n * n + 2))
    return AttackResult(
        view=view,
        pair_i=rng.integers(0, n, m),
        pair_j=rng.integers(0, n, m),
        prob=rng.integers(0, 11, m) / 10,
    )


def _random_targets(rng: np.random.Generator, n: int) -> np.ndarray | None:
    if rng.random() < 0.3:
        return None
    return rng.integers(0, n, int(rng.integers(0, 2 * n)))  # unsorted, repeats


def _state(rng: np.random.Generator):
    return rng.bit_generator.state


@pytest.fixture()
def counted_picks(monkeypatch):
    """Counts the targets that go through the per-target tie branch."""
    calls = []
    original = proximity._pick

    def pick(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(proximity, "_pick", pick)
    return calls


class TestRatesAgainstOracle:
    def test_fraction_grid_in_one_pass(self, counted_picks):
        rng = np.random.default_rng(0)
        for _ in range(300):
            result = _random_result(rng)
            targets = _random_targets(rng, result.n_vpins)
            seed = int(rng.integers(100))
            expected = [
                oracle_pa_success_rate(
                    result, f, targets=targets, rng=np.random.default_rng(seed)
                )
                for f in FRACTIONS
            ]
            assert pa_success_rates(result, FRACTIONS, targets, seed) == expected
        # The inputs reach the tie branch, so the draws are exercised.
        assert counted_picks

    def test_one_fraction_and_generator_state(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            result = _random_result(rng)
            targets = _random_targets(rng, result.n_vpins)
            fraction = float(rng.choice(FRACTIONS))
            seed = int(rng.integers(100))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert pa_success_rate(
                result, fraction, targets=targets, rng=ours
            ) == oracle_pa_success_rate(result, fraction, targets=targets, rng=theirs)
            assert _state(ours) == _state(theirs)

    def test_threshold_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            result = _random_result(rng)
            targets = _random_targets(rng, result.n_vpins)
            for threshold in THRESHOLDS:
                ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
                assert pa_success_rate(
                    result, threshold=threshold, targets=targets, rng=ours
                ) == oracle_pa_success_rate(
                    result, threshold=threshold, targets=targets, rng=theirs
                )
                assert _state(ours) == _state(theirs)

    def test_picks_for_every_target(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            result = _random_result(rng)
            targets = _random_targets(rng, result.n_vpins)
            for fraction in (None, *FRACTIONS):
                ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
                got = proximity_picks(result, fraction, targets=targets, rng=ours)
                want = oracle_proximity_picks(
                    result, fraction, targets=targets, rng=theirs
                )
                assert got.tolist() == want.tolist()
                assert _state(ours) == _state(theirs)

    def test_on_a_trained_attack(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        rng = np.random.default_rng(4)
        for _ in range(5):
            held_out = np.flatnonzero(rng.random(result.n_vpins) < 0.2)
            expected = [
                oracle_pa_success_rate(
                    result, f, targets=held_out, rng=np.random.default_rng(1)
                )
                for f in DEFAULT_PA_FRACTIONS
            ]
            assert pa_success_rates(result, DEFAULT_PA_FRACTIONS, held_out, 1) == expected


class TestEdgeCases:
    def _result(self, pair_i, pair_j, prob, locations, matches):
        vpins = [
            VPin(
                id=v,
                net=f"n{v}",
                location=Point(*xy),
                fragment_wirelength=0.0,
                pins=(),
                pin_location=Point(*xy),
                in_area=1.0,
                out_area=0.0,
                matches=frozenset(matches.get(v, ())),
            )
            for v, xy in enumerate(locations)
        ]
        view = SplitView(
            design_name="t", split_layer=8, die_width=100, die_height=100, vpins=vpins
        )
        return AttackResult(
            view=view,
            pair_i=np.array(pair_i),
            pair_j=np.array(pair_j),
            prob=np.array(prob, dtype=float),
        )

    def test_self_pair_is_a_candidate(self):
        # v0's own (v0, v0) pair sits at distance 0 and wins the pick.
        result = self._result(
            [0, 0], [0, 1], [0.9, 0.9], [(0, 0), (10, 0)], {0: {1}, 1: {0}}
        )
        assert proximity_picks(result, 1.0).tolist() == [0, 0]
        assert pa_success_rate(result, 1.0) == oracle_pa_success_rate(result, 1.0)

    def test_boundary_tie_decided_without_a_draw(self, counted_picks):
        # Two of v0's three candidates tie at the top-K boundary, but the
        # candidate above them is nearer than both, so argpartition's
        # choice between them cannot change the pick.
        result = self._result(
            [0, 0, 0], [1, 2, 3], [0.9, 0.5, 0.5],
            [(0, 0), (10, 0), (50, 0), (60, 0)], {0: {1}, 1: {0}},
        )
        # k = round(0.5 * 4) = 2: {v1} plus one of the tied v2/v3; v1 is
        # nearer than both, so the pick is v1 whichever is kept.
        assert proximity_picks(result, 0.5, targets=np.array([0])).tolist() == [1]
        assert counted_picks == []

    def test_empty_targets_and_view(self):
        result = self._result([0], [1], [0.7], [(0, 0), (5, 0)], {0: {1}, 1: {0}})
        assert pa_success_rates(result, FRACTIONS, np.array([], dtype=int)) == [
            0.0
        ] * len(FRACTIONS)
        empty = self._result([], [], [], [], {})
        assert pa_success_rates(empty, FRACTIONS) == [0.0] * len(FRACTIONS)
        assert proximity_picks(empty).tolist() == []
