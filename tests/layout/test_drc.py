"""Tests for the lightweight DRC checker, and of the generator through it."""

import pytest

from repro.layout.cells import make_standard_library
from repro.layout.design import Design, Route, RouteSegment, Via
from repro.layout.geometry import Point, Rect
from repro.layout.netlist import CellInstance, Net, Netlist, PinRef
from repro.layout.technology import make_default_technology

from .drc import (
    assert_clean,
    check_design,
    check_die_containment,
    check_direction_legality,
    check_via_landing,
)


def _one_net_design(route: Route) -> Design:
    library = make_standard_library()
    netlist = Netlist(name="t", library=library)
    netlist.add_cell(CellInstance("u0", library.master("INV_X1"), Point(0, 0)))
    netlist.add_cell(CellInstance("u1", library.master("INV_X1"), Point(50, 0)))
    netlist.add_net(Net("n", PinRef(0, "Y"), (PinRef(1, "A"),)))
    return Design(
        name="t",
        technology=make_default_technology(),
        netlist=netlist,
        die=Rect(0, 0, 100, 100),
        routes={"n": route},
    )


class TestDirectionRule:
    def test_wrong_direction_flagged(self):
        # M2 is vertical; this horizontal segment is illegal.
        design = _one_net_design(
            Route(net="n", segments=(RouteSegment(2, Point(0, 0), Point(10, 0)),))
        )
        violations = check_direction_legality(design)
        assert len(violations) == 1
        assert violations[0].rule == "direction"
        assert "M2" in violations[0].detail

    def test_m1_exempt(self):
        design = _one_net_design(
            Route(net="n", segments=(RouteSegment(1, Point(0, 0), Point(0, 10)),))
        )
        assert check_direction_legality(design) == []


class TestDieRule:
    def test_off_die_flagged(self):
        design = _one_net_design(
            Route(net="n", segments=(RouteSegment(1, Point(0, 0), Point(500, 0)),))
        )
        assert len(check_die_containment(design)) == 1


class TestViaLanding:
    def test_floating_via_flagged(self):
        design = _one_net_design(
            Route(net="n", vias=(Via(3, Point(40, 40)),))
        )
        violations = check_via_landing(design)
        assert len(violations) == 2  # floats on both M3 and M4

    def test_stacked_vias_land_on_each_other(self):
        design = _one_net_design(
            Route(
                net="n",
                segments=(RouteSegment(1, Point(0, 0), Point(40, 0)),),
                vias=(Via(1, Point(40, 0)), Via(2, Point(40, 0))),
            )
        )
        # V1 lands on M1 (segment) / M2 (V2); V2 lands on M2 (V1) but
        # floats on M3.
        violations = check_via_landing(design)
        assert len(violations) == 1
        assert "M3" in violations[0].detail

    def test_pin_counts_as_m1_landing(self):
        library = make_standard_library()
        pin = library.master("INV_X1").pin("Y")
        design = _one_net_design(
            Route(net="n", vias=(Via(1, Point(pin.offset_x, pin.offset_y)),))
        )
        violations = check_via_landing(design)
        # Lands on M1 via the driver pin; floats on M2 only.
        assert len(violations) == 1


class TestWholeDesign:
    def test_generated_designs_are_clean(self, small_design):
        for rule, violations in check_design(small_design).items():
            assert violations == [], rule
        assert_clean(small_design)

    def test_every_suite_design_is_clean(self, small_suite):
        """The generator, not only the checker: every suite design passes."""
        for design in small_suite:
            assert_clean(design)

    def test_assert_clean_raises_with_preview(self):
        design = _one_net_design(
            Route(net="n", segments=(RouteSegment(2, Point(0, 0), Point(10, 0)),))
        )
        with pytest.raises(AssertionError, match="direction"):
            assert_clean(design)
