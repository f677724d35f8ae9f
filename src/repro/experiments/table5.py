"""Table V: proximity-attack success rates.

Per design and configuration:

* the prior-work baseline [5] (nearest v-pin inside the regression
  radius) and the naive nearest-neighbor attack [9];
* fixed-threshold PA as in [18] (PA-LoC = candidates with p >= 0.5);
* the paper's validation-based PA (PA-LoC fraction chosen on an 80/20
  v-pin split of the training designs).

The "Y" configurations are included for the highest via layer.
"""

from __future__ import annotations

import numpy as np

from ..attack.baselines import PriorWorkAttack, naive_nearest_pa
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
from ..attack.framework import loo_folds
from ..attack.proximity import pa_success_rate, run_validated_pa
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    fold_seeds,
    get_views,
    standard_cli,
)

DEFAULT_LAYERS: tuple[int, ...] = (8, 6, 4)
BASE_CONFIGS: tuple[AttackConfig, ...] = (ML_9, IMP_9, IMP_7, IMP_11)
TOP_LAYER_EXTRA: tuple[AttackConfig, ...] = (ML_9Y, IMP_9Y, IMP_7Y, IMP_11Y)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
    configs: tuple[AttackConfig, ...] | None = None,
) -> ExperimentOutput:
    """Regenerate Table V at ``scale`` (see module docstring)."""
    rows = []
    data: dict = {}
    for layer in layers:
        views = get_views(layer, scale)
        layer_configs = configs or (
            BASE_CONFIGS + TOP_LAYER_EXTRA
            if views and views[0].is_highest_via_split
            else BASE_CONFIGS
        )
        per_design: dict[str, dict[str, float]] = {
            view.design_name: {} for view in views
        }
        validation_time = {c.name: 0.0 for c in layer_configs}
        # Baselines.
        for test_view, training_views in loo_folds(views):
            baseline = PriorWorkAttack().fit(training_views)
            per_design[test_view.design_name]["[5]"] = baseline.pa_success_rate(
                test_view
            )
            per_design[test_view.design_name]["[9] nearest"] = naive_nearest_pa(
                test_view
            )
        # Fixed-threshold [18] and validated PA per configuration.
        seeds = fold_seeds(seed, len(views))
        for config in layer_configs:
            for fold, test_view in enumerate(views):
                # The validated PA trains and scores this fold's model on
                # the test view; the fixed-threshold column reuses it.
                validated = run_validated_pa(
                    config, views, fold, seed=seeds[fold]
                )
                per_design[test_view.design_name][f"{config.name} t=0.5"] = (
                    pa_success_rate(validated.result, threshold=0.5)
                )
                per_design[test_view.design_name][f"{config.name} valid."] = (
                    validated.success_rate
                )
                validation_time[config.name] += validated.validation_time
        columns = ["[5]", "[9] nearest"]
        for config in layer_configs:
            columns.append(f"{config.name} t=0.5")
            columns.append(f"{config.name} valid.")
        for design, values in per_design.items():
            rows.append(
                [f"L{layer}", design]
                + [format_percent(values.get(col)) for col in columns]
            )
        rows.append(
            [f"L{layer}", "Avg"]
            + [
                format_percent(
                    float(np.mean([v.get(col, np.nan) for v in per_design.values()]))
                )
                for col in columns
            ]
        )
        data[layer] = {
            "per_design": per_design,
            "columns": columns,
            "validation_time": validation_time,
        }
        header = ["Layer", "Design"] + columns
        # Rebuild the table per layer because columns differ across layers.
        data[layer]["table"] = ascii_table(header, [r for r in rows if r[0] == f"L{layer}"])
    report = "\n\n".join(
        data[layer]["table"] for layer in layers
    )
    report = "Table V -- proximity attack success rates\n" + report
    return ExperimentOutput(experiment="table5", report=report, data=data)


if __name__ == "__main__":
    args = standard_cli("Reproduce Table V")
    print(run(scale=args.scale, seed=args.seed).report)
