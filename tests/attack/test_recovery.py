"""Tests for netlist-recovery scoring."""

import dataclasses

import numpy as np
import pytest

from repro.attack.config import IMP_9
from repro.attack.framework import evaluate_attack, train_attack
from repro.attack.proximity import pa_success_rate, proximity_picks
from repro.attack.recovery import (
    recover_from_matching,
    recover_from_proximity,
    score_assignment,
)
from repro.attack.result import AttackResult
from repro.layout.geometry import Point
from repro.splitmfg.split import SplitView, VPin


def _view():
    """Two nets: n0 has pairs (0,1); n1 has pairs (2,3) and (4,5)."""
    nets = ["n0", "n0", "n1", "n1", "n1", "n1"]
    matches = {0: {1}, 1: {0}, 2: {3}, 3: {2}, 4: {5}, 5: {4}}
    vpins = [
        VPin(
            id=v,
            net=nets[v],
            location=Point(float(v * 3), 0.0),
            fragment_wirelength=0.0,
            pins=(),
            pin_location=Point(float(v * 3), 0.0),
            in_area=1.0,
            out_area=0.0,
            matches=frozenset(matches[v]),
        )
        for v in range(6)
    ]
    return SplitView(
        design_name="t", split_layer=8, die_width=20, die_height=20, vpins=vpins
    )


class TestScoreAssignment:
    def test_full_recovery(self):
        view = _view()
        report = score_assignment(view, {0: 1, 2: 3, 4: 5})
        assert report.connection_rate == 1.0
        assert report.net_recovery_rate == 1.0
        assert report.n_nets == 2
        assert report.n_connections == 3

    def test_partial_net_not_recovered(self):
        """n1 needs both its connections; getting one is not enough."""
        view = _view()
        report = score_assignment(view, {0: 1, 2: 3, 4: 0})
        assert report.n_correct_connections == 2
        assert report.connection_rate == pytest.approx(2 / 3)
        assert report.n_fully_recovered_nets == 1
        assert report.net_recovery_rate == pytest.approx(0.5)

    def test_symmetric_entries_deduplicated(self):
        view = _view()
        report = score_assignment(view, {0: 1, 1: 0})
        assert report.n_guessed == 1
        assert report.n_correct_connections == 1

    def test_empty_assignment(self):
        report = score_assignment(_view(), {})
        assert report.connection_rate == 0.0
        assert report.net_recovery_rate == 0.0


class TestRecoverers:
    def test_matching_recovery_exact_case(self):
        view = _view()
        result = AttackResult(
            view=view,
            pair_i=np.array([0, 2, 4]),
            pair_j=np.array([1, 3, 5]),
            prob=np.array([0.9, 0.8, 0.7]),
        )
        report = recover_from_matching(result)
        assert report.connection_rate == 1.0
        assert report.net_recovery_rate == 1.0

    def test_on_benchmark(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        matching = recover_from_matching(result)
        proximity = recover_from_proximity(result)
        for report in (matching, proximity):
            assert 0 <= report.connection_rate <= 1
            assert 0 <= report.net_recovery_rate <= report.connection_rate + 1e-9
            assert report.n_connections > 0
        # Recovery must beat random guessing by a wide margin.
        assert matching.connection_rate > 3.0 / len(views8[0])

    def test_proximity_tie_break_prefers_probability(self):
        # v1 and v2 are equally near v0; the more probable v1 must win
        # every time, whatever the generator.
        view = _view()
        view.vpins[2] = dataclasses.replace(
            view.vpins[2], location=Point(0.0, 3.0), pin_location=Point(0.0, 3.0)
        )
        view.invalidate_cache()
        result = AttackResult(
            view=view,
            pair_i=np.array([0, 0]),
            pair_j=np.array([1, 2]),
            prob=np.array([0.9, 0.4]),
        )
        for seed in range(20):
            picks = proximity_picks(result, 1.0, rng=np.random.default_rng(seed))
            assert picks[0] == 1
            report = recover_from_proximity(
                result, 1.0, rng=np.random.default_rng(seed)
            )
            assert report.n_correct_connections == 1

    def test_proximity_recovery_agrees_with_pa_core(self, views8):
        trained = train_attack(IMP_9, views8[1:], seed=0)
        result = evaluate_attack(trained, views8[0])
        view = result.view
        assert all(v.matches for v in view.vpins)
        for fraction in (0.005, 0.02, 0.1):
            picks = proximity_picks(result, fraction, rng=np.random.default_rng(3))
            report = recover_from_proximity(
                result, fraction, rng=np.random.default_rng(3)
            )
            assignment = {v: int(p) for v, p in enumerate(picks) if p >= 0}
            assert report == score_assignment(view, assignment)
            hits = sum(p in view.vpins[v].matches for v, p in assignment.items())
            assert hits / len(view) == pa_success_rate(
                result, fraction, rng=np.random.default_rng(3)
            )
