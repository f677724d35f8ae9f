"""Table I: comparison with prior work [5] for split layers 8, 6, 4.

For every benchmark the prior-work baseline is run first; its operating
point (mean |LoC|, accuracy) anchors the comparison.  Each ML
configuration then reports

* ``|LoC|`` at the baseline's accuracy, and
* accuracy at the baseline's ``|LoC|``,

exactly the two aligned columns of the paper's Table I.

Fold seeds come from ``common.fold_seeds``, so each (layer, fold) row
depends on its own coordinates alone.
"""

from __future__ import annotations

import numpy as np

from ..attack.baselines import PriorWorkAttack
from ..attack.config import IMP_7, IMP_9, IMP_11, ML_9, AttackConfig
from ..attack.framework import evaluate_attack, train_attack
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    fold_seeds,
    get_views,
    standard_cli,
)

CONFIGS: tuple[AttackConfig, ...] = (ML_9, IMP_9, IMP_7, IMP_11)
DEFAULT_LAYERS: tuple[int, ...] = (8, 6, 4)
BASELINE_MARGIN = 1.5


def _fold_row(layer: int, views: list, fold: int, fold_seed: int) -> dict:
    """One (layer, fold) unit: baseline plus every ML configuration."""
    test_view = views[fold]
    training_views = views[:fold] + views[fold + 1 :]
    baseline = PriorWorkAttack().fit(training_views)
    prior = baseline.evaluate(test_view, margin=BASELINE_MARGIN)
    row: dict = {
        "layer": layer,
        "design": test_view.design_name,
        "n_vpins": len(test_view),
        "prior_loc": prior.mean_loc_size,
        "prior_acc": prior.accuracy,
    }
    for config in CONFIGS:
        trained = train_attack(config, training_views, seed=fold_seed)
        result = evaluate_attack(trained, test_view)
        row[f"{config.name}_loc"] = result.mean_loc_size_for_accuracy(
            min(prior.accuracy, result.saturation_accuracy())
        )
        row[f"{config.name}_acc"] = result.accuracy_at_mean_loc_size(
            prior.mean_loc_size
        )
    return row


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
) -> ExperimentOutput:
    """Regenerate Table I at ``scale`` (see module docstring)."""
    fold_rows = []
    for layer in layers:
        views = get_views(layer, scale)
        seeds = fold_seeds(seed, len(views))
        for fold in range(len(views)):
            fold_rows.append(_fold_row(layer, views, fold, seeds[fold]))
    rows = []
    data: dict = {}
    for layer in layers:
        layer_rows = [row for row in fold_rows if row["layer"] == layer]
        data[layer] = layer_rows
        for row in layer_rows:
            rows.append(
                [
                    f"L{layer}",
                    row["design"],
                    row["n_vpins"],
                    row["prior_loc"],
                    format_percent(row["prior_acc"]),
                ]
                + [row[f"{c.name}_loc"] for c in CONFIGS]
                + [format_percent(row[f"{c.name}_acc"]) for c in CONFIGS]
            )
        rows.append(
            [
                f"L{layer}",
                "Avg",
                int(np.mean([r["n_vpins"] for r in layer_rows])),
                float(np.mean([r["prior_loc"] for r in layer_rows])),
                format_percent(float(np.mean([r["prior_acc"] for r in layer_rows]))),
            ]
            + [
                _mean_or_none([r[f"{c.name}_loc"] for r in layer_rows])
                for c in CONFIGS
            ]
            + [
                format_percent(
                    float(np.mean([r[f"{c.name}_acc"] for r in layer_rows]))
                )
                for c in CONFIGS
            ]
        )
    headers = (
        ["Layer", "Design", "#v-pin", "[5] |LoC|", "[5] Acc"]
        + [f"{c.name} |LoC|@acc" for c in CONFIGS]
        + [f"{c.name} Acc@|LoC|" for c in CONFIGS]
    )
    report = ascii_table(
        headers,
        rows,
        title="Table I -- ML attack vs prior work [5] (aligned operating points)",
    )
    return ExperimentOutput(experiment="table1", report=report, data=data)


def _mean_or_none(values: list) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


if __name__ == "__main__":
    args = standard_cli("Reproduce Table I")
    print(run(scale=args.scale, seed=args.seed).report)
