"""Exact tests of the FEOL/BEOL cut on a handcrafted design."""

import numpy as np
import pytest

from repro.layout.cells import make_standard_library
from repro.layout.design import Design, Route, RouteSegment, Via
from repro.layout.geometry import Point, Rect
from repro.layout.netlist import CellInstance, Net, Netlist, PinRef
from repro.layout.technology import make_default_technology
from repro.splitmfg.split import split_design


def _stack_vias(p: Point, lo: int, hi: int) -> list[Via]:
    """Straight via stack at ``p`` covering via layers lo..hi."""
    return [Via(layer, p) for layer in range(lo, hi + 1)]


@pytest.fixture()
def crafted():
    """Two-net design with exactly known routes.

    * ``nhigh``: driver u0 -> sink u1 through an (8,9) Z-route; cut by any
      split layer.
    * ``nlow``: driver u2 -> sink u3 through an (1,2) L-route; never cut at
      layer >= 2.
    * ``nmulti``: driver u0's second... (driver u4) -> near sink u5 on
      (1,2) and far sink u6 through (8,9); at low splits the driver-side
      fragment contains both the driver and the near sink.
    """
    library = make_standard_library()
    technology = make_default_technology()
    die = Rect(0, 0, 200, 200)
    netlist = Netlist(name="crafted", library=library)
    inv = library.master("INV_X1")
    for index, location in enumerate(
        [
            Point(10, 8),  # u0 driver of nhigh
            Point(150, 160),  # u1 sink of nhigh
            Point(40, 8),  # u2 driver of nlow
            Point(60, 8),  # u3 sink of nlow
            Point(10, 96),  # u4 driver of nmulti
            Point(20, 96),  # u5 near sink of nmulti
            Point(150, 8),  # u6 far sink of nmulti
        ]
    ):
        netlist.add_cell(CellInstance(f"u{index}", inv, location))
    netlist.add_net(Net("nhigh", PinRef(0, "Y"), (PinRef(1, "A"),)))
    netlist.add_net(Net("nlow", PinRef(2, "Y"), (PinRef(3, "A"),)))
    netlist.add_net(
        Net("nmulti", PinRef(4, "Y"), (PinRef(5, "A"), PinRef(6, "A")))
    )

    def z_route(name: str, a: Point, b: Point, ty: float) -> Route:
        segments = [
            RouteSegment(8, a, Point(a.x, ty)),
            RouteSegment(9, Point(a.x, ty), Point(b.x, ty)),
            RouteSegment(8, Point(b.x, ty), Point(b.x, b.y)),
        ]
        vias = (
            _stack_vias(a, 1, 7)
            + [Via(8, Point(a.x, ty)), Via(8, Point(b.x, ty))]
            + _stack_vias(b, 1, 7)
        )
        return Route(net=name, segments=tuple(segments), vias=tuple(vias))

    p0 = netlist.pin_location(PinRef(0, "Y"))
    p1 = netlist.pin_location(PinRef(1, "A"))
    routes = {"nhigh": z_route("nhigh", p0, p1, 100.0)}

    p2 = netlist.pin_location(PinRef(2, "Y"))
    p3 = netlist.pin_location(PinRef(3, "A"))
    routes["nlow"] = Route(
        net="nlow",
        segments=(
            RouteSegment(1, p2, Point(p3.x, p2.y)),
            RouteSegment(2, Point(p3.x, p2.y), p3),
        ),
        vias=(Via(1, Point(p3.x, p2.y)), Via(1, p3)),
    )

    p4 = netlist.pin_location(PinRef(4, "Y"))
    p5 = netlist.pin_location(PinRef(5, "A"))
    p6 = netlist.pin_location(PinRef(6, "A"))
    low_arc = Route(
        net="",
        segments=(
            RouteSegment(1, p4, Point(p5.x, p4.y)),
            RouteSegment(2, Point(p5.x, p4.y), p5),
        ),
        vias=(Via(1, Point(p5.x, p4.y)), Via(1, p5)),
    )
    high_arc = z_route("", p4, p6, 140.0)
    routes["nmulti"] = Route(
        net="nmulti",
        segments=low_arc.segments + high_arc.segments,
        vias=low_arc.vias + high_arc.vias,
    )
    return Design(
        name="crafted", technology=technology, netlist=netlist, die=die, routes=routes
    )


class TestSplitLayer8:
    def test_vpins_and_matching(self, crafted):
        view = split_design(crafted, 8)
        # nhigh contributes 2 v-pins, nmulti's high arc 2 more, nlow none.
        assert len(view) == 4
        nets = sorted(v.net for v in view.vpins)
        assert nets == ["nhigh", "nhigh", "nmulti", "nmulti"]
        for vpin in view.vpins:
            assert len(vpin.matches) == 1
            partner = view.vpins[next(iter(vpin.matches))]
            assert partner.net == vpin.net
            assert vpin.id in partner.matches

    def test_vpin_locations_share_y(self, crafted):
        view = split_design(crafted, 8)
        for vpin in view.vpins:
            partner = view.vpins[next(iter(vpin.matches))]
            assert vpin.location.y == partner.location.y

    def test_driver_and_sink_sides(self, crafted):
        view = split_design(crafted, 8)
        nhigh = [v for v in view.vpins if v.net == "nhigh"]
        drivers = [v for v in nhigh if v.is_driver_side]
        sinks = [v for v in nhigh if not v.is_driver_side]
        assert len(drivers) == 1 and len(sinks) == 1
        inv_area = crafted.library.master("INV_X1").area
        assert drivers[0].out_area == pytest.approx(inv_area)
        assert drivers[0].in_area == 0.0
        assert sinks[0].in_area == pytest.approx(inv_area)
        assert sinks[0].out_area == 0.0

    def test_fragment_wirelength(self, crafted):
        view = split_design(crafted, 8)
        p0 = crafted.netlist.pin_location(PinRef(0, "Y"))
        driver = next(
            v for v in view.vpins if v.net == "nhigh" and v.is_driver_side
        )
        # Driver-side FEOL fragment is the M8 riser from the pin to y=100.
        assert driver.fragment_wirelength == pytest.approx(100.0 - p0.y)
        assert driver.pin_location == p0

    def test_split_at_4_uses_stack_locations(self, crafted):
        view = split_design(crafted, 4)
        p0 = crafted.netlist.pin_location(PinRef(0, "Y"))
        driver = next(
            v for v in view.vpins if v.net == "nhigh" and v.is_driver_side
        )
        assert driver.location == p0
        assert driver.fragment_wirelength == 0.0


class TestMultiPinFragment:
    def test_driver_fragment_includes_near_sink(self, crafted):
        """At a low split the nmulti driver-side fragment reaches both the
        driver pin and the locally-routed sink."""
        view = split_design(crafted, 4)
        driver = next(
            v for v in view.vpins if v.net == "nmulti" and v.is_driver_side
        )
        assert len(driver.pins) == 2
        inv_area = crafted.library.master("INV_X1").area
        assert driver.out_area == pytest.approx(inv_area)
        assert driver.in_area == pytest.approx(inv_area)
        p4 = crafted.netlist.pin_location(PinRef(4, "Y"))
        p5 = crafted.netlist.pin_location(PinRef(5, "A"))
        assert driver.pin_location.x == pytest.approx((p4.x + p5.x) / 2)
        # Fragment wirelength includes the local arc.
        assert driver.fragment_wirelength > 0.0

    def test_uncut_net_contributes_nothing(self, crafted):
        for layer in (4, 6, 8):
            view = split_design(crafted, layer)
            assert all(v.net != "nlow" for v in view.vpins)


class TestSplitViewHelpers:
    def test_arrays_and_distances(self, crafted):
        view = split_design(crafted, 8)
        arr = view.arrays()
        assert len(arr["vx"]) == len(view)
        distances = view.match_distances()
        assert len(distances) == view.num_matched_pairs == 2
        assert (distances > 0).all()

    def test_match_distances_cached_and_read_only(self, crafted):
        view = split_design(crafted, 8)
        distances = view.match_distances()
        assert view.match_distances() is distances
        assert not distances.flags.writeable
        arr = view.arrays()
        expected = [
            abs(arr["vx"][i] - arr["vx"][j]) + abs(arr["vy"][i] - arr["vy"][j])
            for i, j in view.match_pairs()
        ]
        np.testing.assert_array_equal(distances, expected)
        view.invalidate_cache()
        assert view.match_distances() is not distances

    def test_match_pairs_unique(self, crafted):
        view = split_design(crafted, 8)
        pairs = view.match_pairs()
        assert len(pairs) == 2
        for i, j in pairs:
            assert i < j

    def test_aligned_axis(self, crafted):
        assert split_design(crafted, 8).aligned_axis == "y"
        assert split_design(crafted, 6).aligned_axis is None
        assert split_design(crafted, 8).is_highest_via_split

    def test_invalid_layer(self, crafted):
        with pytest.raises(ValueError):
            split_design(crafted, 9)

    def test_benchmark_invariants(self, small_design):
        """On a generated design: v-pins are a subset of the split-layer
        vias (unbroken loop vias are dropped), every kept v-pin has a
        match, and matching is symmetric and intra-net."""
        for layer in (8, 6):
            view = split_design(small_design, layer)
            n_vias = len(
                {
                    (round(v.at.x, 6), round(v.at.y, 6), r.net)
                    for r in small_design.routes.values()
                    for v in r.vias
                    if v.layer == layer
                }
            )
            assert 0 < len(view) <= n_vias
            for vpin in view.vpins:
                assert vpin.matches
                for m in vpin.matches:
                    assert view.vpins[m].net == vpin.net
                    assert vpin.id in view.vpins[m].matches
                    assert m != vpin.id
                assert vpin.id == view.vpins[vpin.id].id
