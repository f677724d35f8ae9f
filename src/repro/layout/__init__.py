"""Layout substrate: geometry, technology, cells, netlists, routed designs."""

from .cells import (
    CellLibrary,
    CellMaster,
    PinDirection,
    PinSpec,
    make_standard_library,
)
from .design import Design, Route, RouteSegment, Via
from .visualize import vpin_map
from .geometry import Point, Rect, bounding_box, centroid, hpwl, snap, snap_point
from .io import design_from_dict, design_to_dict, load_design, save_design
from .netlist import CellInstance, Net, Netlist, PinRef
from .technology import (
    Direction,
    MetalLayer,
    Technology,
    make_default_technology,
)

__all__ = [
    "CellInstance",
    "CellLibrary",
    "CellMaster",
    "Design",
    "Direction",
    "MetalLayer",
    "Net",
    "Netlist",
    "PinDirection",
    "PinRef",
    "PinSpec",
    "Point",
    "Rect",
    "Route",
    "RouteSegment",
    "Technology",
    "Via",
    "bounding_box",
    "centroid",
    "design_from_dict",
    "design_to_dict",
    "hpwl",
    "load_design",
    "make_default_technology",
    "make_standard_library",
    "save_design",
    "snap",
    "snap_point",
    "vpin_map",
]
