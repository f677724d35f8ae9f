"""Ablation: the neighborhood percentile trade-off (Section III-D).

The paper: "Defining the neighborhood based on a smaller percentage, say
80%, can accelerate training and testing, however ... the classification
accuracy may slightly degrade."  This experiment sweeps the percentile
and reports pairs evaluated, saturation accuracy, accuracy at a fixed
LoC fraction, and runtime.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..attack.config import IMP_9
from ..attack.framework import run_loo
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

DEFAULT_LAYER = 6
PERCENTILES: tuple[float, ...] = (70.0, 80.0, 90.0, 95.0, 99.0)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layer: int = DEFAULT_LAYER,
    percentiles: tuple[float, ...] = PERCENTILES,
) -> ExperimentOutput:
    """Run the neighborhood-percentile sweep at ``scale``."""
    views = get_views(layer, scale)
    rows = []
    data: dict = {}
    for percentile in percentiles:
        config = replace(
            IMP_9,
            name=f"Imp-9/p{percentile:g}",
            neighborhood_percentile=percentile,
        )
        results = run_loo(config, views, seed=seed)
        entry = {
            "pairs": sum(r.n_pairs_evaluated for r in results),
            "saturation": float(
                np.mean([r.saturation_accuracy() for r in results])
            ),
            "accuracy_at_3pct": float(
                np.mean([r.accuracy_at_loc_fraction(0.03) for r in results])
            ),
            "runtime": sum(r.runtime for r in results),
        }
        data[percentile] = entry
        rows.append(
            [
                f"{percentile:g}%",
                entry["pairs"],
                format_percent(entry["saturation"]),
                format_percent(entry["accuracy_at_3pct"]),
                f"{entry['runtime']:.1f}s",
            ]
        )
    report = ascii_table(
        (
            "neighborhood percentile",
            "pairs evaluated",
            "saturation accuracy",
            "accuracy @ 3% LoC",
            "runtime",
        ),
        rows,
        title=f"Ablation -- Imp neighborhood percentile (layer {layer})",
    )
    return ExperimentOutput(
        experiment="ablation_neighborhood", report=report, data=data
    )


if __name__ == "__main__":
    args = standard_cli("Neighborhood percentile ablation")
    print(run(scale=args.scale, seed=args.seed).report)
