"""Route connectivity check over routed nets (a test helper).

The router's contract is that every routed net forms one connected
component touching all of its pins; the router and design tests assert
it through :func:`route_connectivity_ok`.
"""

from __future__ import annotations

import networkx as nx

from repro.layout.design import Route
from repro.layout.geometry import Point


def route_connectivity_ok(
    route: Route, pin_points: list[Point], tol: float = 1e-6
) -> bool:
    """Check that a route forms one connected component touching its pins.

    Connectivity is defined by exact (within ``tol``) endpoint sharing:
    two elements touch when they share a (layer, x, y) node; a via joins
    the same (x, y) on adjacent layers; cell pins live on M1.
    """

    def node(layer: int, p: Point) -> tuple[int, float, float]:
        return (layer, round(p.x / tol) * tol, round(p.y / tol) * tol)

    graph: nx.Graph = nx.Graph()
    for seg in route.segments:
        graph.add_edge(node(seg.layer, seg.a), node(seg.layer, seg.b))
    for via in route.vias:
        graph.add_edge(node(via.lower_metal, via.at), node(via.upper_metal, via.at))
    pin_nodes = [node(1, p) for p in pin_points]
    for pn in pin_nodes:
        if pn not in graph:
            graph.add_node(pn)
    if graph.number_of_nodes() == 0:
        return False
    components = list(nx.connected_components(graph))
    return any(all(pn in comp for pn in pin_nodes) for comp in components)
