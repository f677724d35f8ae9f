"""Table IV: configuration comparison across layers.

For every configuration and split layer: the LoC fraction needed for an
average accuracy of {95, 90, 80, 50} %, the average accuracy at LoC
fractions of {0.1, 1, 3, 10} %, and the total runtime.  The "Y"
configurations are added for the highest via layer, as in the paper.

Note on operating points: at reproduction scale a design has 10^2-10^3
v-pins (vs 10^4-10^5 in the paper), so the paper's 0.01 % fraction would
be below one candidate; the fraction grid is shifted accordingly while
keeping the paper's accuracy grid.
"""

from __future__ import annotations

from ..analysis.curves import (
    accuracy_at_fraction,
    fraction_for_mean_accuracy,
    mean_curve,
)
from ..attack.config import (
    IMP_7,
    IMP_7Y,
    IMP_9,
    IMP_9Y,
    IMP_11,
    IMP_11Y,
    ML_9,
    ML_9Y,
    AttackConfig,
)
from ..attack.framework import run_loo
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

ACCURACY_GRID: tuple[float, ...] = (0.95, 0.90, 0.80, 0.50)
FRACTION_GRID: tuple[float, ...] = (0.001, 0.01, 0.03, 0.10)
DEFAULT_LAYERS: tuple[int, ...] = (8, 6, 4)

BASE_CONFIGS: tuple[AttackConfig, ...] = (ML_9, IMP_9, IMP_7, IMP_11)
TOP_LAYER_EXTRA: tuple[AttackConfig, ...] = (ML_9Y, IMP_9Y, IMP_7Y, IMP_11Y)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
) -> ExperimentOutput:
    """Regenerate Table IV at ``scale`` (see module docstring)."""
    rows = []
    data: dict = {}
    for layer in layers:
        views = get_views(layer, scale)
        configs = BASE_CONFIGS
        if views and views[0].is_highest_via_split:
            configs = BASE_CONFIGS + TOP_LAYER_EXTRA
        layer_data = {}
        for config in configs:
            results = run_loo(config, views, seed=seed)
            fractions, accuracies = mean_curve(results)
            entry = {
                "fraction_at_accuracy": {
                    a: fraction_for_mean_accuracy(fractions, accuracies, a)
                    for a in ACCURACY_GRID
                },
                "accuracy_at_fraction": {
                    f: accuracy_at_fraction(fractions, accuracies, f)
                    for f in FRACTION_GRID
                },
                "runtime": sum(r.runtime for r in results),
                "pairs": sum(r.n_pairs_evaluated for r in results),
            }
            layer_data[config.name] = entry
            rows.append(
                [f"L{layer}", config.name]
                + [
                    format_percent(entry["fraction_at_accuracy"][a])
                    for a in ACCURACY_GRID
                ]
                + [
                    format_percent(entry["accuracy_at_fraction"][f])
                    for f in FRACTION_GRID
                ]
                + [f"{entry['runtime']:.1f}s"]
            )
        data[layer] = layer_data
    headers = (
        ["Layer", "Config"]
        + [f"frac@{int(a * 100)}%" for a in ACCURACY_GRID]
        + [f"acc@{f:g}" for f in FRACTION_GRID]
        + ["Runtime"]
    )
    report = ascii_table(
        headers,
        rows,
        title=(
            "Table IV -- model configurations: LoC fraction at target accuracy, "
            "accuracy at target LoC fraction, runtime"
        ),
    )
    return ExperimentOutput(experiment="table4", report=report, data=data)


if __name__ == "__main__":
    args = standard_cli("Reproduce Table IV")
    print(run(scale=args.scale, seed=args.seed).report)
