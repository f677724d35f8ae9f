"""Extension: information-theoretic security accounting.

Recasts the paper's designer-facing conclusions in bits: for each split
layer, the attacker's baseline uncertainty per v-pin, the residual
uncertainty after the Imp-11 attack, and the netlist-recovery rates a
globally consistent reconstruction achieves.  Lower layers should retain
more residual bits -- the "lower split layers generally provide more
security" conclusion, quantified.
"""

from __future__ import annotations

import numpy as np

from ..analysis.security import security_bits
from ..attack.config import IMP_11
from ..attack.framework import run_loo
from ..attack.recovery import recover_from_matching
from ..reporting import ascii_table, format_percent
from .common import (
    DEFAULT_SCALE,
    ExperimentOutput,
    get_views,
    standard_cli,
)

DEFAULT_LAYERS: tuple[int, ...] = (8, 6, 4)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    layers: tuple[int, ...] = DEFAULT_LAYERS,
) -> ExperimentOutput:
    """Run the security accounting at ``scale`` (see module docstring)."""
    rows = []
    data: dict = {}
    for layer in layers:
        views = get_views(layer, scale)
        results = run_loo(IMP_11, views, seed=seed)
        baselines = []
        residuals = []
        connection_rates = []
        net_rates = []
        for result in results:
            bits = security_bits(result)
            baselines.append(bits["baseline_bits"])
            residuals.append(bits["residual_bits"])
            report = recover_from_matching(result)
            connection_rates.append(report.connection_rate)
            net_rates.append(report.net_recovery_rate)
        entry = {
            "baseline_bits": float(np.mean(baselines)),
            "residual_bits": float(np.mean(residuals)),
            "connection_rate": float(np.mean(connection_rates)),
            "net_recovery_rate": float(np.mean(net_rates)),
        }
        data[layer] = entry
        rows.append(
            [
                f"V{layer}",
                f"{entry['baseline_bits']:.2f}",
                f"{entry['residual_bits']:.2f}",
                f"{entry['baseline_bits'] - entry['residual_bits']:.2f}",
                format_percent(entry["connection_rate"]),
                format_percent(entry["net_recovery_rate"]),
            ]
        )
    report = ascii_table(
        (
            "Split layer",
            "baseline bits/v-pin",
            "residual bits",
            "attack gain (bits)",
            "connections recovered",
            "nets fully recovered",
        ),
        rows,
        title="Extension -- security in bits and netlist recovery (Imp-11)",
    )
    return ExperimentOutput(
        experiment="extension_security", report=report, data=data
    )


if __name__ == "__main__":
    args = standard_cli("Security accounting extension")
    print(run(scale=args.scale, seed=args.seed).report)
