"""Fig. 10: trade-off curves with and without obfuscation noise.

Imp-11 mean accuracy vs LoC fraction at layers 6 and 4, for clean data
and for 1 %/2 % y-noise.  The paper's shape: the noisy curves sit far
below the clean one at layer 6 and closer at layer 4 (where natural
y-variation already dwarfs the added noise).
"""

from __future__ import annotations

import numpy as np

from ..analysis.ascii_plots import curve_block
from ..analysis.curves import mean_curve
from ..attack.config import IMP_11
from ..attack.framework import run_loo
from ..attack.obfuscation import obfuscate_suite
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

DEFAULT_LAYERS: tuple[int, ...] = (6, 4)
NOISE_LEVELS: tuple[float, ...] = (0.0, 0.01, 0.02)
SERIES_FRACTIONS = np.array([0.0005, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3])


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
    noise_levels: tuple[float, ...] = NOISE_LEVELS,
) -> ExperimentOutput:
    """Regenerate Fig. 10 at ``scale`` (see module docstring)."""
    blocks = []
    data: dict = {}
    for layer in layers:
        clean_views = get_views(layer, scale)
        rows = []
        layer_data: dict = {}
        for noise in noise_levels:
            views = (
                clean_views
                if noise == 0.0
                else obfuscate_suite(clean_views, noise, seed=seed + int(noise * 1000))
            )
            results = run_loo(IMP_11, views, seed=seed)
            _, accuracies = mean_curve(results, SERIES_FRACTIONS)
            label = "no noise" if noise == 0 else f"SD={noise:.0%}"
            layer_data[label] = tuple(float(a) for a in accuracies)
            rows.append([label] + [format_percent(a, 1) for a in accuracies])
        blocks.append(
            ascii_table(
                ["Noise"] + [f"f={f:g}" for f in SERIES_FRACTIONS],
                rows,
                title=(
                    f"Fig. 10 -- Imp-11 mean accuracy vs LoC fraction with "
                    f"obfuscation noise (layer {layer})"
                ),
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
        experiment="figure10", report="\n\n".join(blocks), data=data
    )


if __name__ == "__main__":
    args = standard_cli("Reproduce Fig. 10")
    print(run(scale=args.scale, seed=args.seed).report)
