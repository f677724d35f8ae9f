"""Edge-case tests for the router: tiny stacks, Prim arcs, clamping."""

import numpy as np
import pytest

from repro.layout.design import Route
from repro.layout.geometry import Point, Rect
from repro.layout.technology import make_default_technology
from repro.synth.router import GlobalRouter, RouterConfig

from ..layout.connectivity import route_connectivity_ok


class TestShortStacks:
    def test_three_layer_technology(self):
        """Thresholds re-space for stacks with fewer pairs than entries."""
        technology = make_default_technology(num_metal_layers=3)
        die = Rect(0, 0, 500, 500)
        router = GlobalRouter(technology, die, RouterConfig(seed=1))
        assert len(router.pairs) == 2
        segments, vias = router.route_arc(Point(10, 10), Point(400, 450))
        route = Route(net="t", segments=tuple(segments), vias=tuple(vias))
        assert route_connectivity_ok(route, [Point(10, 10), Point(400, 450)])
        assert max(s.layer for s in segments) <= 3

    def test_two_layer_technology(self):
        technology = make_default_technology(num_metal_layers=2)
        die = Rect(0, 0, 100, 100)
        router = GlobalRouter(technology, die, RouterConfig(seed=2))
        segments, vias = router.route_arc(Point(5, 5), Point(90, 90))
        assert all(s.layer <= 2 for s in segments)
        assert all(v.layer == 1 for v in vias)


class TestPrimArcs:
    @pytest.fixture()
    def router(self):
        return GlobalRouter(
            make_default_technology(), Rect(0, 0, 100, 100), RouterConfig(seed=3)
        )

    def test_single_point_no_arcs(self, router):
        assert router._prim_arcs([Point(1, 1)]) == []

    def test_two_points_one_arc(self, router):
        arcs = router._prim_arcs([Point(0, 0), Point(5, 5)])
        assert arcs == [(Point(0, 0), Point(5, 5))]

    def test_chain_prefers_near_neighbors(self, router):
        # Collinear points: Prim should chain them, not star from p0.
        points = [Point(0, 0), Point(10, 0), Point(20, 0), Point(30, 0)]
        arcs = router._prim_arcs(points)
        lengths = [a.manhattan(b) for a, b in arcs]
        assert lengths == [10, 10, 10]

    def test_arc_count(self, router):
        points = [Point(float(i), float(i % 3)) for i in range(7)]
        assert len(router._prim_arcs(points)) == 6

    def test_all_points_connected(self, router):
        rng = np.random.default_rng(4)
        points = [
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            for _ in range(9)
        ]
        arcs = router._prim_arcs(points)
        reached = {points[0]}
        for a, b in arcs:
            assert a in reached  # source always already connected
            reached.add(b)
        assert reached == set(points)


class TestClamping:
    def test_arcs_near_die_edge_stay_inside(self):
        technology = make_default_technology()
        die = Rect(0, 0, 200, 200)
        router = GlobalRouter(
            technology,
            die,
            RouterConfig(jog_mean_pitches=50.0, detour_mean_pitches=50.0, seed=5),
        )
        for _ in range(10):
            segments, vias = router.route_arc(Point(1, 1), Point(199, 199))
            for seg in segments:
                for p in seg.endpoints:
                    assert die.contains(p, tol=1e-6)
            for via in vias:
                assert die.contains(via.at, tol=1e-6)

    def test_zero_length_arc(self):
        technology = make_default_technology()
        die = Rect(0, 0, 100, 100)
        router = GlobalRouter(technology, die, RouterConfig(seed=6))
        segments, vias = router.route_arc(Point(50, 50), Point(50, 50))
        route = Route(net="t", segments=tuple(segments), vias=tuple(vias))
        assert route_connectivity_ok(route, [Point(50, 50)])
