"""Lightweight design-rule checks over routed designs (a test helper).

Not a sign-off DRC -- a structural sanity net for the synthetic
generator and for anyone extending the router: direction legality,
on-grid vias, stacked-via continuity, and off-track wires are exactly
the bugs that silently corrupt the v-pin populations downstream.
Violations are returned as data rather than raised, so tests can assert
on categories.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.design import Design
from repro.layout.technology import Direction


@dataclass(frozen=True)
class Violation:
    """One design-rule violation."""

    rule: str
    net: str
    detail: str


def check_direction_legality(design: Design) -> list[Violation]:
    """Non-stub segments must follow their layer's preferred direction.

    M1 is exempt (cells pin-access in both directions there).
    """
    violations = []
    for name, route in design.iter_routes():
        for seg in route.segments:
            if seg.layer == 1 or seg.direction is None:
                continue
            expected = design.technology.direction(seg.layer)
            if seg.direction is not expected:
                violations.append(
                    Violation(
                        rule="direction",
                        net=name,
                        detail=(
                            f"M{seg.layer} segment runs {seg.direction.value}, "
                            f"layer is {expected.value}"
                        ),
                    )
                )
    return violations


def check_die_containment(design: Design, tol: float = 1e-6) -> list[Violation]:
    """Every route element must lie inside the die outline."""
    violations = []
    for name, route in design.iter_routes():
        for seg in route.segments:
            for p in seg.endpoints:
                if not design.die.contains(p, tol=tol):
                    violations.append(
                        Violation("die", name, f"segment endpoint {p} off-die")
                    )
        for via in route.vias:
            if not design.die.contains(via.at, tol=tol):
                violations.append(
                    Violation("die", name, f"via at {via.at} off-die")
                )
    return violations


def check_via_landing(design: Design, tol: float = 1e-6) -> list[Violation]:
    """Every via must touch route geometry (or a pin) on both its layers.

    A via "landing" is a segment endpoint at the via's location on the
    respective metal layer, another via at the same point spanning into
    that layer, or -- on M1 -- a cell pin of the net.
    """
    violations = []
    nets_by_name = {n.name: n for n in design.netlist.nets}
    for name, route in design.iter_routes():
        hard_landings: set[tuple[int, float, float]] = set()
        for seg in route.segments:
            for p in seg.endpoints:
                hard_landings.add((seg.layer, round(p.x, 6), round(p.y, 6)))
        for ref in nets_by_name[name].pins:
            p = design.netlist.pin_location(ref)
            hard_landings.add((1, round(p.x, 6), round(p.y, 6)))
        # Stacked vias land on each other: count contributions per node.
        via_touch: dict[tuple[int, float, float], int] = {}
        for via in route.vias:
            key = (round(via.at.x, 6), round(via.at.y, 6))
            for layer in (via.lower_metal, via.upper_metal):
                via_touch[(layer, *key)] = via_touch.get((layer, *key), 0) + 1
        for via in route.vias:
            key = (round(via.at.x, 6), round(via.at.y, 6))
            for layer in (via.lower_metal, via.upper_metal):
                node = (layer, *key)
                # Landed if wire/pin geometry touches, or a *different*
                # via shares this node (its own contribution is 1).
                if node in hard_landings or via_touch[node] >= 2:
                    continue
                violations.append(
                    Violation(
                        "via-landing",
                        name,
                        f"via V{via.layer} at {via.at} floats on M{layer}",
                    )
                )
    return violations


def check_design(design: Design) -> dict[str, list[Violation]]:
    """Run every check; returns violations grouped by rule family."""
    return {
        "direction": check_direction_legality(design),
        "die": check_die_containment(design),
        "via-landing": check_via_landing(design),
    }


def assert_clean(design: Design) -> None:
    """Raise ``AssertionError`` listing the first few violations, if any."""
    all_violations = [v for vs in check_design(design).values() for v in vs]
    if all_violations:
        preview = "; ".join(
            f"{v.rule}:{v.net}:{v.detail}" for v in all_violations[:5]
        )
        raise AssertionError(
            f"{len(all_violations)} DRC violations, e.g. {preview}"
        )
