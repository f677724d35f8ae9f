"""Tests for the direction-aware global router."""

import numpy as np
import pytest

from repro.layout.design import Route
from repro.layout.geometry import Point, Rect
from repro.layout.technology import Direction, make_default_technology
from repro.synth.router import CongestionGrid, GlobalRouter, RouterConfig, layer_pairs

from ..layout.connectivity import route_connectivity_ok


@pytest.fixture()
def router():
    technology = make_default_technology()
    die = Rect(0, 0, 1000, 1000)
    return GlobalRouter(technology, die, RouterConfig(seed=11))


class TestCongestionGrid:
    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            CongestionGrid(Rect(0, 0, 10, 10), 0)

    def test_empty_grid_level_zero(self):
        grid = CongestionGrid(Rect(0, 0, 10, 10), 4)
        assert grid.level_at(Point(5, 5)) == 0.0

    def test_usage_accumulates(self):
        grid = CongestionGrid(Rect(0, 0, 10, 10), 2)
        grid.add_segment(Point(1, 1), Point(4, 1))
        assert grid.usage.sum() == pytest.approx(3.0)
        assert grid.level_at(Point(1, 1)) > grid.level_at(Point(9, 9))

    def test_out_of_die_points_clamped(self):
        grid = CongestionGrid(Rect(0, 0, 10, 10), 2)
        grid.add_segment(Point(-5, -5), Point(50, 50))
        assert np.isfinite(grid.usage).all()


class TestLayerPairs:
    def test_pairs_cover_stack(self):
        technology = make_default_technology()
        pairs = layer_pairs(technology)
        assert pairs[0] == (1, 2)
        assert pairs[-1] == (8, 9)
        assert len(pairs) == 8


class TestPairAssignment:
    def test_monotone_with_length(self, router):
        """Longer arcs never land on a lower pair (modulo promotion)."""
        router.config = RouterConfig(promotion_probability=0.0, seed=1)
        router.rng = np.random.default_rng(1)
        lengths = [1, 10, 50, 150, 400, 900]
        pairs = [router._assign_pair(length) for length in lengths]
        lowers = [p[0] for p in pairs]
        assert lowers == sorted(lowers)

    def test_short_arc_low_pair(self, router):
        router.config = RouterConfig(promotion_probability=0.0, seed=1)
        router.rng = np.random.default_rng(1)
        assert router._assign_pair(0.5)[0] == 1

    def test_long_arc_top_pair(self, router):
        router.config = RouterConfig(promotion_probability=0.0, seed=1)
        assert router._assign_pair(1900) == (8, 9)


class TestRouteArc:
    def test_direction_legality(self, router):
        segments, _vias = router.route_arc(Point(100, 100), Point(900, 800))
        for seg in segments:
            if seg.direction is None or seg.layer == 1:
                continue
            assert seg.direction is router.technology.direction(seg.layer)

    def test_arc_connectivity(self, router):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            b = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            segments, vias = router.route_arc(a, b)
            route = Route(net="t", segments=tuple(segments), vias=tuple(vias))
            assert route_connectivity_ok(route, [a, b])

    def test_within_die(self, router):
        segments, vias = router.route_arc(Point(1, 1), Point(999, 999))
        for seg in segments:
            for p in seg.endpoints:
                assert router.die.contains(p, tol=1e-6)
        for via in vias:
            assert router.die.contains(via.at, tol=1e-6)

    def test_long_arc_produces_top_layer_vias(self, router):
        router.config = RouterConfig(promotion_probability=0.0, seed=1)
        router.rng = np.random.default_rng(1)
        _segments, vias = router.route_arc(Point(10, 10), Point(990, 990))
        assert any(v.layer == 8 for v in vias)

    def test_top_pair_vias_share_y(self, router):
        """V8 vias of an (8,9)-routed arc must share the y coordinate --
        the unidirectional top-metal property of Section III-G."""
        router.config = RouterConfig(
            promotion_probability=0.0, excursion_probability=0.0, seed=2
        )
        router.rng = np.random.default_rng(2)
        _segments, vias = router.route_arc(Point(10, 10), Point(990, 990))
        v8 = [v for v in vias if v.layer == 8]
        assert len(v8) == 2
        assert v8[0].at.y == v8[1].at.y


class TestExcursions:
    def test_excursions_occur(self):
        technology = make_default_technology()
        die = Rect(0, 0, 1000, 1000)
        config = RouterConfig(
            excursion_probability=1.0, promotion_probability=0.0, seed=3
        )
        router = GlobalRouter(technology, die, config)
        # Arc on pair (6, 7): the M7 run should hop onto M9.
        _segments, vias = router.route_arc(Point(10, 500), Point(180, 520))
        # With excursion on, some arc should produce vias above its pair.
        found = False
        for _ in range(30):
            segments, vias = router.route_arc(
                Point(float(router.rng.uniform(0, 300)), 500),
                Point(float(router.rng.uniform(600, 1000)), 520),
            )
            layers = {s.layer for s in segments}
            if max(layers) >= 8 and 7 in layers:
                found = True
                break
        assert found

    def test_no_excursions_when_disabled(self):
        technology = make_default_technology()
        die = Rect(0, 0, 1000, 1000)
        config = RouterConfig(
            excursion_probability=0.0, promotion_probability=0.0, seed=3
        )
        router = GlobalRouter(technology, die, config)
        for _ in range(10):
            # Arcs of length <= 200 land on pair (5, 6) at most; without
            # promotion/excursion nothing should touch M7+.
            segments, _ = router.route_arc(
                Point(float(router.rng.uniform(0, 100)), 100),
                Point(float(router.rng.uniform(0, 100)), 200),
            )
            top = max(s.layer for s in segments)
            assert top <= 6

    def test_excursion_connectivity(self):
        technology = make_default_technology()
        die = Rect(0, 0, 1000, 1000)
        config = RouterConfig(excursion_probability=1.0, seed=4)
        router = GlobalRouter(technology, die, config)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            b = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            segments, vias = router.route_arc(a, b)
            route = Route(net="t", segments=tuple(segments), vias=tuple(vias))
            assert route_connectivity_ok(route, [a, b])


class TestRouteNetlist:
    def test_full_design_routes_and_validates(self, small_design):
        small_design.validate()

    def test_deterministic(self):
        from repro.synth.benchmarks import BENCHMARK_SPECS, build_benchmark

        a = build_benchmark(BENCHMARK_SPECS[0], scale=0.08)
        b = build_benchmark(BENCHMARK_SPECS[0], scale=0.08)
        assert a.vias_by_layer() == b.vias_by_layer()
        assert a.total_wirelength == pytest.approx(b.total_wirelength)
