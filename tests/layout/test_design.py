"""Tests for routed-design structures and validation."""

import pytest

from repro.layout.design import Design, Route, RouteSegment, Via
from repro.layout.geometry import Point, Rect
from repro.layout.technology import make_default_technology

from .connectivity import route_connectivity_ok


class TestRouteSegment:
    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            RouteSegment(1, Point(0, 0), Point(1, 1))

    def test_length_and_direction(self):
        seg = RouteSegment(3, Point(0, 5), Point(10, 5))
        assert seg.length == 10
        assert seg.direction.value == "H"
        stub = RouteSegment(3, Point(1, 1), Point(1, 1))
        assert stub.length == 0
        assert stub.direction is None


class TestVia:
    def test_metal_span(self):
        via = Via(6, Point(0, 0))
        assert via.lower_metal == 6
        assert via.upper_metal == 7


class TestRoute:
    def _route(self):
        return Route(
            net="n",
            segments=(
                RouteSegment(1, Point(0, 0), Point(4, 0)),
                RouteSegment(2, Point(4, 0), Point(4, 3)),
            ),
            vias=(Via(1, Point(4, 0)),),
        )

    def test_wirelength(self):
        assert self._route().wirelength == 7

    def test_wirelength_on(self):
        route = self._route()
        assert route.wirelength_on(1) == 4
        assert route.wirelength_on(2) == 3
        assert route.wirelength_on(5) == 0

    def test_highest_metal(self):
        assert self._route().highest_metal == 2

    def test_crossing(self):
        route = self._route()
        assert route.crosses_via_layer(1)
        assert not route.crosses_via_layer(2)
        assert len(route.vias_on(1)) == 1


def _empty_design(die=Rect(0, 0, 100, 100)):
    from repro.layout.cells import make_standard_library
    from repro.layout.netlist import Netlist

    technology = make_default_technology()
    netlist = Netlist(name="d", library=make_standard_library())
    return Design(
        name="d", technology=technology, netlist=netlist, die=die, routes={}
    )


class TestDesignValidation:
    def test_route_for_unknown_net(self):
        design = _empty_design()
        design.routes["ghost"] = Route(net="ghost")
        with pytest.raises(ValueError):
            design.validate()

    def test_segment_outside_die(self):
        from repro.layout.cells import make_standard_library
        from repro.layout.geometry import Point as P
        from repro.layout.netlist import CellInstance, Net, Netlist, PinRef

        library = make_standard_library()
        netlist = Netlist(name="d", library=library)
        netlist.add_cell(CellInstance("u0", library.master("INV_X1"), P(0, 0)))
        netlist.add_cell(CellInstance("u1", library.master("INV_X1"), P(10, 0)))
        netlist.add_net(Net("n", PinRef(0, "Y"), (PinRef(1, "A"),)))
        design = Design(
            name="d",
            technology=make_default_technology(),
            netlist=netlist,
            die=Rect(0, 0, 100, 100),
            routes={
                "n": Route(
                    net="n",
                    segments=(RouteSegment(1, P(0, 0), P(500, 0)),),
                )
            },
        )
        with pytest.raises(ValueError):
            design.validate()

    def test_wrong_direction_rejected(self):
        design = _empty_design()
        # M2 is vertical in the default stack; a horizontal segment on it
        # is illegal (M1 is exempt).
        from repro.layout.netlist import Net, PinRef, CellInstance
        from repro.layout.geometry import Point as P

        library = design.library
        design.netlist.add_cell(CellInstance("u0", library.master("INV_X1"), P(0, 0)))
        design.netlist.add_cell(CellInstance("u1", library.master("INV_X1"), P(10, 0)))
        design.netlist.add_net(Net("n", PinRef(0, "Y"), (PinRef(1, "A"),)))
        design.routes["n"] = Route(
            net="n", segments=(RouteSegment(2, P(0, 0), P(10, 0)),)
        )
        with pytest.raises(ValueError):
            design.validate()
        design.validate(check_directions=False)


class TestDesignQueries:
    def test_benchmark_design_queries(self, small_design):
        vias = small_design.vias_by_layer()
        assert set(vias) == set(range(1, 9))
        # Lower via layers carry more vias than higher ones.
        assert vias[1] > vias[4] > vias[8] > 0
        cut = small_design.nets_cut_at(8)
        assert 0 < len(cut) < small_design.netlist.num_nets
        for name in cut:
            assert small_design.route_of(name).crosses_via_layer(8)

    def test_routes_are_connected(self, small_design):
        """Every generated route must form one connected component
        touching all of its pins (shared-endpoint stitching)."""
        checked = 0
        for net in small_design.netlist.nets[:50]:
            pins = [small_design.netlist.pin_location(r) for r in net.pins]
            assert route_connectivity_ok(small_design.route_of(net.name), pins)
            checked += 1
        assert checked == 50
