"""ASCII visualization of split views.

A terminal-renderable v-pin density map, printed by ``repro split
--map``; not a GDS viewer.
"""

from __future__ import annotations

import numpy as np

from .geometry import Rect

_SHADES = " .:-=+*#%@"


def _render(grid: np.ndarray, title: str) -> str:
    """Render a 2-D non-negative grid as shaded characters (row 0 at top)."""
    peak = grid.max()
    lines = [title]
    normalized = grid / peak if peak > 0 else grid
    for row in normalized[::-1]:
        cells = [
            _SHADES[min(int(v * (len(_SHADES) - 1) + 0.5), len(_SHADES) - 1)]
            for v in row
        ]
        lines.append("|" + "".join(cells) + "|")
    lines.append(f"(peak = {peak:.3g})")
    return "\n".join(lines)


def _bin_points(
    xs: np.ndarray,
    ys: np.ndarray,
    die: Rect,
    cols: int,
    rows: int,
) -> np.ndarray:
    grid = np.zeros((rows, cols))
    if len(xs) == 0:
        return grid
    ci = np.clip(((xs - die.xlo) / max(die.width, 1e-9) * cols).astype(int), 0, cols - 1)
    ri = np.clip(((ys - die.ylo) / max(die.height, 1e-9) * rows).astype(int), 0, rows - 1)
    np.add.at(grid, (ri, ci), 1.0)
    return grid


def vpin_map(view, cols: int = 64, rows: int = 24) -> str:
    """V-pin density of a split view (what the attacker's RC feature sees)."""
    arr = view.arrays()
    die = Rect(0, 0, max(view.die_width, 1e-9), max(view.die_height, 1e-9))
    grid = _bin_points(arr["vx"], arr["vy"], die, cols, rows)
    return _render(
        grid,
        f"v-pin density ({view.design_name}, split V{view.split_layer}, "
        f"{len(view)} v-pins)",
    )
