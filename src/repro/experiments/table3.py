"""Table III: two-level pruning vs no pruning (Imp-11).

Reports, per design, |LoC| and accuracy at the default threshold for both
the plain Level-1 model and the two-level pruned model.  To make the
trade-offs comparable the aligned accuracy-at-equal-|LoC| is also
reported: the two-level model's accuracy measured at the unpruned model's
mean LoC size.  The paper's shape: pruning helps at layer 8 for most
benchmarks, and stops helping at layer 6.
"""

from __future__ import annotations

import numpy as np

from ..attack.config import IMP_11
from ..attack.two_level import run_two_level_fold
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    fold_seeds,
    get_views,
    standard_cli,
)

DEFAULT_LAYERS: tuple[int, ...] = (8, 6)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
) -> ExperimentOutput:
    """Regenerate Table III at ``scale`` (see module docstring)."""
    by_layer: dict[int, list] = {}
    for layer in layers:
        views = get_views(layer, scale)
        seeds = fold_seeds(seed, len(views))
        by_layer[layer] = [
            run_two_level_fold(IMP_11, views, test_index, seed=fold_seed)
            for test_index, fold_seed in enumerate(seeds)
        ]
    rows = []
    data: dict = {}
    for layer in layers:
        layer_data = []
        runtime_two_level = 0.0
        runtime_plain = 0.0
        for outcome in by_layer[layer]:
            plain = outcome.level1
            pruned = outcome.two_level
            runtime_plain += plain.runtime
            runtime_two_level += pruned.runtime
            record = {
                "design": plain.view.design_name,
                "plain_loc": plain.mean_loc_size_at_threshold(0.5),
                "plain_acc": plain.accuracy_at_threshold(0.5),
                "pruned_loc": pruned.mean_loc_size_at_threshold(0.5),
                "pruned_acc": pruned.accuracy_at_threshold(0.5),
                "plain_acc_at_pruned_loc": plain.accuracy_at_mean_loc_size(
                    pruned.mean_loc_size_at_threshold(0.5)
                ),
            }
            layer_data.append(record)
            rows.append(
                [
                    f"L{layer}",
                    record["design"],
                    record["pruned_loc"],
                    format_percent(record["pruned_acc"]),
                    record["plain_loc"],
                    format_percent(record["plain_acc"]),
                    format_percent(record["plain_acc_at_pruned_loc"]),
                ]
            )
        rows.append(
            [
                f"L{layer}",
                "Avg",
                float(np.mean([d["pruned_loc"] for d in layer_data])),
                format_percent(float(np.mean([d["pruned_acc"] for d in layer_data]))),
                float(np.mean([d["plain_loc"] for d in layer_data])),
                format_percent(float(np.mean([d["plain_acc"] for d in layer_data]))),
                format_percent(
                    float(np.mean([d["plain_acc_at_pruned_loc"] for d in layer_data]))
                ),
            ]
        )
        rows.append(
            [
                f"L{layer}",
                "Runtime",
                f"{runtime_two_level:.1f}s",
                "",
                f"{runtime_plain:.1f}s",
                "",
                "",
            ]
        )
        data[layer] = layer_data
    report = ascii_table(
        (
            "Layer",
            "Design",
            "2-level |LoC|",
            "2-level Acc",
            "No-prune |LoC|",
            "No-prune Acc",
            "No-prune Acc@2-level|LoC|",
        ),
        rows,
        title="Table III -- two-level pruning vs no pruning (Imp-11, threshold 0.5)",
    )
    return ExperimentOutput(experiment="table3", report=report, data=data)


if __name__ == "__main__":
    args = standard_cli("Reproduce Table III")
    print(run(scale=args.scale, seed=args.seed).report)
