"""Fig. 9: LoC-fraction vs accuracy trade-off curves per layer.

For each layer the mean curve (over the five benchmarks) of every
configuration is printed as a series, alongside the prior-work [5]
baseline curve.  The paper's shapes: near-step curves at layer 8,
Imp curves saturating below 100 % (visibly at layer 4), and every ML
configuration far above the [5] curve.
"""

from __future__ import annotations

import numpy as np

from ..analysis.ascii_plots import curve_block
from ..analysis.curves import mean_curve
from ..attack.baselines import PriorWorkAttack
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
from ..attack.framework import loo_folds, run_loo
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

DEFAULT_LAYERS: tuple[int, ...] = (8, 6, 4)
BASE_CONFIGS: tuple[AttackConfig, ...] = (ML_9, IMP_9, IMP_7, IMP_11)
TOP_LAYER_EXTRA: tuple[AttackConfig, ...] = (ML_9Y, IMP_9Y, IMP_7Y, IMP_11Y)

#: Shared fraction grid for the printed series.
SERIES_FRACTIONS = np.array([0.0005, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3])


def _baseline_mean_curve(views) -> np.ndarray:
    """Average [5]-baseline accuracy interpolated onto the shared grid."""
    accumulated = np.zeros(len(SERIES_FRACTIONS))
    for test_view, training_views in loo_folds(views):
        baseline = PriorWorkAttack().fit(training_views)
        fractions, accuracies = baseline.curve(test_view)
        order = np.argsort(fractions)
        accumulated += np.interp(
            np.log10(SERIES_FRACTIONS),
            np.log10(np.maximum(fractions[order], 1e-9)),
            accuracies[order],
        )
    return accumulated / len(views)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
) -> ExperimentOutput:
    """Regenerate Fig. 9 at ``scale`` (see module docstring)."""
    blocks = []
    data: dict = {}
    for layer in layers:
        views = get_views(layer, scale)
        configs = BASE_CONFIGS
        if views and views[0].is_highest_via_split:
            configs = BASE_CONFIGS + TOP_LAYER_EXTRA
        rows = []
        layer_data: dict = {}
        for config in configs:
            results = run_loo(config, views, seed=seed)
            _, accuracies = mean_curve(results, SERIES_FRACTIONS)
            layer_data[config.name] = tuple(float(a) for a in accuracies)
            rows.append(
                [config.name] + [format_percent(a, 1) for a in accuracies]
            )
        baseline = _baseline_mean_curve(views)
        layer_data["[5]"] = tuple(float(a) for a in baseline)
        rows.append(["[5] baseline"] + [format_percent(a, 1) for a in baseline])
        blocks.append(
            ascii_table(
                ["Config"] + [f"f={f:g}" for f in SERIES_FRACTIONS],
                rows,
                title=f"Fig. 9 -- mean accuracy vs LoC fraction (layer {layer})",
            )
        )
        blocks.append(
            curve_block(
                f"(layer {layer}, x = log-spaced LoC fraction)",
                SERIES_FRACTIONS,
                {name: list(values) for name, values in layer_data.items()},
            )
        )
        data[layer] = layer_data
    return ExperimentOutput(
        experiment="figure9", report="\n\n".join(blocks), data=data
    )


if __name__ == "__main__":
    args = standard_cli("Reproduce Fig. 9")
    print(run(scale=args.scale, seed=args.seed).report)
