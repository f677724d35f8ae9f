"""Extension: a defense bake-off at fixed obfuscation strength.

Compares the paper's y-noise against the broader defense family in
:mod:`repro.attack.defenses` -- isotropic noise, dummy-v-pin insertion,
and placement-feature scrambling -- all evaluated under the same Imp-11
attack, reporting accuracy at a 1% LoC budget and validated-PA-style
proximity success.
"""

from __future__ import annotations

import numpy as np

from ..attack.config import IMP_11
from ..attack.defenses import apply_defense_suite
from ..attack.framework import run_loo
from ..attack.proximity import pa_success_rate
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

DEFAULT_LAYER = 6

#: (defense name, strength) grid; strengths chosen to be comparable in
#: "effort" (1-2% geometric perturbation, 30% decoys, 30% swaps).
DEFENSE_GRID: tuple[tuple[str, float], ...] = (
    ("y-noise", 0.01),
    ("xy-noise", 0.01),
    ("dummies", 0.30),
    ("scramble", 0.30),
)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layer: int = DEFAULT_LAYER,
    grid: tuple[tuple[str, float], ...] = DEFENSE_GRID,
) -> ExperimentOutput:
    """Run the defense comparison at ``scale`` (see module docstring)."""
    clean_views = get_views(layer, scale)

    def attack(views):
        results = run_loo(IMP_11, views, seed=seed)
        accuracy = float(
            np.mean([r.accuracy_at_loc_fraction(0.01) for r in results])
        )
        pa = float(
            np.mean([pa_success_rate(r, pa_fraction=0.02) for r in results])
        )
        return accuracy, pa

    rows = []
    data: dict = {}
    base_accuracy, base_pa = attack(clean_views)
    data["none"] = {"accuracy": base_accuracy, "pa": base_pa}
    rows.append(
        ["none", "--", format_percent(base_accuracy), format_percent(base_pa)]
    )
    for defense, strength in grid:
        views = apply_defense_suite(clean_views, defense, strength, seed=seed)
        accuracy, pa = attack(views)
        data[defense] = {"accuracy": accuracy, "pa": pa, "strength": strength}
        rows.append(
            [
                defense,
                f"{strength:g}",
                format_percent(accuracy),
                format_percent(pa),
            ]
        )
    report = ascii_table(
        ("defense", "strength", "attack accuracy @ 1% LoC", "PA success @ 2%"),
        rows,
        title=f"Extension -- defense comparison under Imp-11 (layer {layer})",
    )
    return ExperimentOutput(
        experiment="extension_defenses", report=report, data=data
    )


if __name__ == "__main__":
    args = standard_cli("Defense comparison extension")
    print(run(scale=args.scale, seed=args.seed).report)
