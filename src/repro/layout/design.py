"""Placed-and-routed design: the input artifact of the split-manufacturing cut.

A :class:`Route` is a geometrically explicit 3-D polyline: wire segments on
metal layers plus vias between adjacent layers.  The split module later
partitions each route into FEOL (at/below the split layer) and BEOL (above)
by simple layer comparison, and recovers connectivity from shared segment
endpoints -- so routes must be *stitched*: consecutive elements share exact
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .cells import CellLibrary
from .geometry import Point, Rect
from .netlist import Netlist, PinRef
from .technology import Direction, Technology


@dataclass(frozen=True, slots=True)
class RouteSegment:
    """A wire on a single metal layer between two axis-aligned points."""

    layer: int
    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise ValueError(f"segment on M{self.layer} is not axis-aligned: {self}")

    @property
    def length(self) -> float:
        return self.a.manhattan(self.b)

    @property
    def direction(self) -> Direction | None:
        """Routing direction, or ``None`` for a zero-length stub."""
        if self.a.x == self.b.x and self.a.y == self.b.y:
            return None
        if self.a.y == self.b.y:
            return Direction.HORIZONTAL
        return Direction.VERTICAL

    @property
    def endpoints(self) -> tuple[Point, Point]:
        return (self.a, self.b)


@dataclass(frozen=True, slots=True)
class Via:
    """A via connecting metal layers ``layer`` and ``layer + 1`` at ``at``."""

    layer: int
    at: Point

    @property
    def lower_metal(self) -> int:
        return self.layer

    @property
    def upper_metal(self) -> int:
        return self.layer + 1


@dataclass(frozen=True)
class Route:
    """The full routed geometry of one net."""

    net: str
    segments: tuple[RouteSegment, ...] = field(default_factory=tuple)
    vias: tuple[Via, ...] = field(default_factory=tuple)

    @property
    def wirelength(self) -> float:
        return sum(s.length for s in self.segments)

    @property
    def highest_metal(self) -> int:
        """Topmost metal layer touched by this route (0 if unrouted)."""
        top = max((s.layer for s in self.segments), default=0)
        top_via = max((v.upper_metal for v in self.vias), default=0)
        return max(top, top_via)

    def wirelength_on(self, layer: int) -> float:
        return sum(s.length for s in self.segments if s.layer == layer)

    def vias_on(self, via_layer: int) -> tuple[Via, ...]:
        return tuple(v for v in self.vias if v.layer == via_layer)

    def crosses_via_layer(self, via_layer: int) -> bool:
        """Whether a split at ``via_layer`` would cut this net."""
        return any(v.layer == via_layer for v in self.vias)


@dataclass
class Design:
    """A complete placed-and-routed design."""

    name: str
    technology: Technology
    netlist: Netlist
    die: Rect
    routes: dict[str, Route] = field(default_factory=dict)

    @property
    def library(self) -> CellLibrary:
        return self.netlist.library

    def route_of(self, net_name: str) -> Route:
        return self.routes[net_name]

    @property
    def total_wirelength(self) -> float:
        return sum(r.wirelength for r in self.routes.values())

    def vias_by_layer(self) -> dict[int, int]:
        """Number of vias per via layer (v-pin counts before the cut)."""
        counts: dict[int, int] = {
            k: 0 for k in range(1, self.technology.num_via_layers + 1)
        }
        for route in self.routes.values():
            for via in route.vias:
                counts[via.layer] += 1
        return counts

    def nets_cut_at(self, via_layer: int) -> list[str]:
        """Names of nets that a split at ``via_layer`` would break."""
        self.technology.validate_via_layer(via_layer)
        return [
            name
            for name, route in self.routes.items()
            if route.crosses_via_layer(via_layer)
        ]

    def iter_routes(self) -> Iterator[tuple[str, Route]]:
        yield from self.routes.items()

    def validate(self, check_directions: bool = True) -> None:
        """Structural checks used by the generator tests.

        * every net has a route and vice versa;
        * every segment lies on a legal metal layer, inside the die;
        * (optionally) non-stub segments follow their layer's direction;
        * every via sits on a legal via layer.
        """
        self.netlist.validate()
        net_names = {n.name for n in self.netlist.nets}
        for name in self.routes:
            if name not in net_names:
                raise ValueError(f"route for unknown net {name!r}")
        for net in self.netlist.nets:
            if net.name not in self.routes:
                raise ValueError(f"net {net.name} has no route")
        for name, route in self.routes.items():
            for seg in route.segments:
                layer = self.technology.metal(seg.layer)
                if check_directions and seg.direction is not None:
                    if seg.direction is not layer.direction and seg.layer != 1:
                        raise ValueError(
                            f"net {name}: segment on {layer.name} runs "
                            f"{seg.direction.value}, layer is {layer.direction.value}"
                        )
                for p in seg.endpoints:
                    if not self.die.contains(p, tol=1e-6):
                        raise ValueError(f"net {name}: point {p} outside die")
            for via in route.vias:
                self.technology.validate_via_layer(via.layer)
                if not self.die.contains(via.at, tol=1e-6):
                    raise ValueError(f"net {name}: via {via} outside die")

