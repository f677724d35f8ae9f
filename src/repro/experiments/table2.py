"""Table II: RandomTree [18] vs REPTree (this paper) as Bagging base.

Runs the ``Imp-7`` configuration twice per fold -- once with 100 bagged
RandomTrees (the Weka RandomForest of [18]) and once with 10 bagged
REPTrees -- and reports |LoC|, accuracy, and total runtime per layer.
The paper's claim: near-identical attack quality at <10 % of the runtime.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..attack.config import IMP_7
from ..attack.framework import run_loo
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

DEFAULT_LAYERS: tuple[int, ...] = (8, 6)

RANDOMTREE_CONFIG = replace(
    IMP_7, name="Imp-7/RandomTree", base_classifier="randomtree", n_estimators=100
)
REPTREE_CONFIG = IMP_7


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
) -> ExperimentOutput:
    """Regenerate Table II at ``scale`` (see module docstring)."""
    rows = []
    data: dict = {}
    for layer in layers:
        views = get_views(layer, scale)
        rt_results = run_loo(RANDOMTREE_CONFIG, views, seed=seed)
        rep_results = run_loo(REPTREE_CONFIG, views, seed=seed)
        layer_data = []
        for rt, rep in zip(rt_results, rep_results):
            layer_data.append(
                {
                    "design": rt.view.design_name,
                    "rt_loc": rt.mean_loc_size_at_threshold(0.5),
                    "rt_acc": rt.accuracy_at_threshold(0.5),
                    "rep_loc": rep.mean_loc_size_at_threshold(0.5),
                    "rep_acc": rep.accuracy_at_threshold(0.5),
                }
            )
            rows.append(
                [
                    f"L{layer}",
                    rt.view.design_name,
                    layer_data[-1]["rt_loc"],
                    format_percent(layer_data[-1]["rt_acc"]),
                    layer_data[-1]["rep_loc"],
                    format_percent(layer_data[-1]["rep_acc"]),
                ]
            )
        rt_runtime = sum(r.runtime for r in rt_results)
        rep_runtime = sum(r.runtime for r in rep_results)
        rows.append(
            [
                f"L{layer}",
                "Avg",
                float(np.mean([d["rt_loc"] for d in layer_data])),
                format_percent(float(np.mean([d["rt_acc"] for d in layer_data]))),
                float(np.mean([d["rep_loc"] for d in layer_data])),
                format_percent(float(np.mean([d["rep_acc"] for d in layer_data]))),
            ]
        )
        rows.append(
            [
                f"L{layer}",
                "Runtime",
                f"{rt_runtime:.1f}s",
                "",
                f"{rep_runtime:.1f}s",
                f"({rep_runtime / max(rt_runtime, 1e-9):.0%} of [18])",
            ]
        )
        data[layer] = {
            "per_design": layer_data,
            "randomtree_runtime": rt_runtime,
            "reptree_runtime": rep_runtime,
        }
    report = ascii_table(
        (
            "Layer",
            "Design",
            "[18] RandomForest |LoC|",
            "[18] Acc",
            "REPTree Bagging |LoC|",
            "Acc",
        ),
        rows,
        title="Table II -- base classifier comparison with Imp-7 (threshold 0.5)",
    )
    return ExperimentOutput(experiment="table2", report=report, data=data)


if __name__ == "__main__":
    args = standard_cli("Reproduce Table II")
    print(run(scale=args.scale, seed=args.seed).report)
