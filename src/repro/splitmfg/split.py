"""Cutting a routed design at a split (via) layer.

This implements the "challenge instance" generation of the paper's Fig. 1:
the design is partitioned into FEOL (metal at or below the split layer,
visible to the attacker) and BEOL (metal above it, hidden).  Every via on
the split layer becomes a *v-pin*.  Ground truth -- which v-pins the hidden
BEOL actually connects -- is recovered from the geometric connectivity of
the above-split route elements, so it is exact by construction and never
leaks into the attacker-visible features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..layout.cells import PinDirection
from ..layout.design import Design, Route
from ..layout.geometry import Point, centroid
from ..layout.netlist import PinRef

_ROUND = 6  # decimal places for coordinate keying


def _node(layer: int, p: Point) -> tuple[int, float, float]:
    return (layer, round(p.x, _ROUND), round(p.y, _ROUND))


class _UnionFind:
    """Plain union-find over hashable keys."""

    def __init__(self) -> None:
        self._parent: dict = {}

    def find(self, key):
        parent = self._parent.setdefault(key, key)
        if parent != key:
            root = self.find(parent)
            self._parent[key] = root
            return root
        return key

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


@dataclass(slots=True)
class VPin:
    """One broken-net point on the split layer, with its FEOL attributes.

    Attributes follow the paper's Section III-A: ``location`` is
    ``(vx, vy)``; ``pin_location`` is ``(px, py)`` (the average of the
    attached cell-pin locations); ``fragment_wirelength`` is ``W``;
    ``in_area``/``out_area`` sum the areas of cells attached through
    input/output pins; ``pc``/``rc`` are the placement and routing
    congestion densities; ``matches`` are the ground-truth partner ids.
    """

    id: int
    net: str
    location: Point
    fragment_wirelength: float
    pins: tuple[PinRef, ...]
    pin_location: Point
    in_area: float
    out_area: float
    pc: float = 0.0
    rc: float = 0.0
    matches: frozenset[int] = field(default_factory=frozenset)

    @property
    def is_driver_side(self) -> bool:
        """Whether the FEOL fragment contains the net's driver pin."""
        return self.out_area > 0.0


@dataclass
class SplitView:
    """The attacker's view of one design cut at one via layer.

    ``num_via_layers`` and ``top_metal_direction`` describe the (publicly
    known) technology: when the split is at the highest via layer, the
    only hidden layer routes in ``top_metal_direction``, so matching
    v-pins must share the orthogonal coordinate -- the property exploited
    by the "Y"-suffixed configurations (paper Section III-G).
    """

    design_name: str
    split_layer: int
    die_width: float
    die_height: float
    vpins: list[VPin]
    num_via_layers: int = 8
    top_metal_direction: str = "H"

    def __post_init__(self) -> None:
        self._arrays: dict[str, np.ndarray] | None = None
        self._match_codes: np.ndarray | None = None
        self._match_distances: np.ndarray | None = None
        self._content_hash: str | None = None

    def __len__(self) -> int:
        return len(self.vpins)

    @property
    def half_perimeter(self) -> float:
        return self.die_width + self.die_height

    @property
    def is_highest_via_split(self) -> bool:
        """Whether only the (unidirectional) top metal layer is hidden."""
        return self.split_layer == self.num_via_layers

    @property
    def aligned_axis(self) -> str | None:
        """Coordinate matching pairs must share, if the split is topmost.

        ``"y"`` when the hidden top layer is horizontal, ``"x"`` when it is
        vertical, ``None`` when more than one layer is hidden.
        """
        if not self.is_highest_via_split:
            return None
        return "y" if self.top_metal_direction == "H" else "x"

    @property
    def num_matched_pairs(self) -> int:
        """Number of ground-truth connected pairs."""
        return sum(len(v.matches) for v in self.vpins) // 2

    def arrays(self) -> dict[str, np.ndarray]:
        """Column-wise numpy view of all v-pin attributes (cached)."""
        if self._arrays is None:
            vp = self.vpins
            self._arrays = {
                "vx": np.array([v.location.x for v in vp]),
                "vy": np.array([v.location.y for v in vp]),
                "px": np.array([v.pin_location.x for v in vp]),
                "py": np.array([v.pin_location.y for v in vp]),
                "w": np.array([v.fragment_wirelength for v in vp]),
                "in_area": np.array([v.in_area for v in vp]),
                "out_area": np.array([v.out_area for v in vp]),
                "pc": np.array([v.pc for v in vp]),
                "rc": np.array([v.rc for v in vp]),
            }
        return self._arrays

    def invalidate_cache(self) -> None:
        """Drop the cached arrays (after in-place edits, e.g. obfuscation)."""
        self._arrays = None
        self._match_codes = None
        self._match_distances = None
        self._content_hash = None

    def match_codes(self) -> np.ndarray:
        """Sorted directed codes ``i * n + j`` of every true match (cached).

        ``j in vpins[i].matches`` exactly when ``i * n + j`` is present, so
        a batch of candidate pairs is checked with one ``searchsorted``.
        """
        if self._match_codes is None:
            n = len(self.vpins)
            self._match_codes = np.sort(np.array(
                [i * n + j for i, vpin in enumerate(self.vpins) for j in vpin.matches],
                dtype=np.int64,
            ))
        return self._match_codes

    def are_matches(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Mask of the pairs ``(i[k], j[k])`` with ``j[k] in vpins[i[k]].matches``."""
        codes = self.match_codes()
        query = np.asarray(i, dtype=np.int64) * len(self.vpins) + j
        if len(codes) == 0:
            return np.zeros(query.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
        return codes[pos] == query

    def match_pairs(self) -> list[tuple[int, int]]:
        """All ground-truth pairs ``(i, j)`` with ``i < j``."""
        pairs = []
        for v in self.vpins:
            for m in v.matches:
                if v.id < m:
                    pairs.append((v.id, m))
        return pairs

    def match_distances(self) -> np.ndarray:
        """Manhattan distances between ground-truth matching v-pins, in
        :meth:`match_pairs` order (cached, read-only)."""
        if self._match_distances is None:
            arr = self.arrays()
            i, j = np.array(self.match_pairs(), dtype=np.int64).reshape(-1, 2).T
            distances = np.abs(arr["vx"][i] - arr["vx"][j])
            distances += np.abs(arr["vy"][i] - arr["vy"][j])
            distances.flags.writeable = False
            self._match_distances = distances
        return self._match_distances


def _split_route(
    route: Route,
    split_layer: int,
) -> tuple[list[tuple[Point, set]], dict[int, int]] | None:
    """Partition one route at ``split_layer``.

    Returns ``(vpin_records, beol_groups)`` where ``vpin_records`` is a list
    of ``(location, feol_component_key)`` per distinct split-layer via and
    ``beol_groups`` maps v-pin index (within the route) to a BEOL component
    label; or ``None`` when the route is not cut.
    """
    split_vias = [v for v in route.vias if v.layer == split_layer]
    if not split_vias:
        return None
    # Distinct split points (two arcs can degenerate onto one via).
    seen: dict[tuple[float, float], Point] = {}
    for via in split_vias:
        key = (round(via.at.x, _ROUND), round(via.at.y, _ROUND))
        seen.setdefault(key, via.at)
    points = list(seen.values())

    feol = _UnionFind()
    beol = _UnionFind()
    for seg in route.segments:
        uf = feol if seg.layer <= split_layer else beol
        uf.union(_node(seg.layer, seg.a), _node(seg.layer, seg.b))
    for via in route.vias:
        if via.layer < split_layer:
            feol.union(_node(via.lower_metal, via.at), _node(via.upper_metal, via.at))
        elif via.layer > split_layer:
            beol.union(_node(via.lower_metal, via.at), _node(via.upper_metal, via.at))

    records = []
    groups: dict[int, int] = {}
    labels: dict = {}
    for idx, p in enumerate(points):
        feol_key = feol.find(_node(split_layer, p))
        records.append((p, feol_key))
        beol_key = beol.find(_node(split_layer + 1, p))
        groups[idx] = labels.setdefault(beol_key, len(labels))
    return records, groups


def _fragment_stats(
    design: Design,
    route: Route,
    net_pins: tuple[PinRef, ...],
    split_layer: int,
) -> tuple[_UnionFind, dict, dict]:
    """FEOL union-find plus per-component wirelength and attached pins."""
    feol = _UnionFind()
    for seg in route.segments:
        if seg.layer <= split_layer:
            feol.union(_node(seg.layer, seg.a), _node(seg.layer, seg.b))
    for via in route.vias:
        if via.layer < split_layer:
            feol.union(_node(via.lower_metal, via.at), _node(via.upper_metal, via.at))
    wirelength: dict = {}
    for seg in route.segments:
        if seg.layer <= split_layer:
            root = feol.find(_node(seg.layer, seg.a))
            wirelength[root] = wirelength.get(root, 0.0) + seg.length
    pins_by_component: dict = {}
    for ref in net_pins:
        location = design.netlist.pin_location(ref)
        root = feol.find(_node(1, location))
        pins_by_component.setdefault(root, []).append(ref)
    return feol, wirelength, pins_by_component


def split_design(design: Design, split_layer: int) -> SplitView:
    """Cut ``design`` at ``split_layer`` and extract all v-pins.

    Congestion features (``pc``/``rc``) are filled in by
    :func:`repro.splitmfg.vpin_features.attach_congestion`, which
    :func:`make_split_view` calls for you.
    """
    design.technology.validate_via_layer(split_layer)
    vpins: list[VPin] = []
    nets_by_name = {n.name: n for n in design.netlist.nets}
    for net_name, route in design.iter_routes():
        parts = _split_route(route, split_layer)
        if parts is None:
            continue
        records, groups = parts
        net = nets_by_name[net_name]
        feol, wirelength, pins_by_component = _fragment_stats(
            design, route, net.pins, split_layer
        )
        candidates: list[VPin] = []
        roots: list = []
        for idx, (location, _feol_key) in enumerate(records):
            root = feol.find(_node(split_layer, location))
            roots.append(root)
            attached = tuple(pins_by_component.get(root, ()))
            if attached:
                pin_location = centroid(
                    [design.netlist.pin_location(r) for r in attached]
                )
            else:
                # A fragment with no cell pin (pathological); fall back to
                # the v-pin's own footprint.
                pin_location = location
            in_area = 0.0
            out_area = 0.0
            for ref in attached:
                cell = design.netlist.cell_of(ref)
                direction = cell.master.pin(ref.pin).direction
                if direction is PinDirection.INPUT:
                    in_area += cell.area
                else:
                    out_area += cell.area
            candidates.append(
                VPin(
                    id=idx,  # provisional; re-assigned after filtering
                    net=net_name,
                    location=location,
                    fragment_wirelength=wirelength.get(root, 0.0),
                    pins=attached,
                    pin_location=pin_location,
                    in_area=in_area,
                    out_area=out_area,
                )
            )
        # Ground truth: same BEOL component AND different FEOL fragments.
        # Two vias rising from one fragment into one hidden wire do not
        # break the net (the attacker sees them as already connected), so
        # they never form a matching task; v-pins left without any match
        # are dropped from the challenge entirely.
        by_group: dict[int, list[int]] = {}
        for idx, group in groups.items():
            by_group.setdefault(group, []).append(idx)
        local_matches: dict[int, set[int]] = {i: set() for i in range(len(candidates))}
        for members in by_group.values():
            for a in members:
                for b in members:
                    if a != b and roots[a] != roots[b]:
                        local_matches[a].add(b)
        keep = [i for i in range(len(candidates)) if local_matches[i]]
        new_ids = {old: len(vpins) + pos for pos, old in enumerate(keep)}
        for old in keep:
            vpin = candidates[old]
            vpin.id = new_ids[old]
            vpin.matches = frozenset(new_ids[m] for m in local_matches[old])
            vpins.append(vpin)
    return SplitView(
        design_name=design.name,
        split_layer=split_layer,
        die_width=design.die.width,
        die_height=design.die.height,
        vpins=vpins,
        num_via_layers=design.technology.num_via_layers,
        top_metal_direction=design.technology.top_metal.direction.value,
    )
