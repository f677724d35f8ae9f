"""Plain-text reporting: value formatting and ASCII tables.

Every experiment module renders its output through these helpers so the
benchmark harness and the examples produce uniform, diffable text.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np


def format_value(value: Any) -> str:
    """Human-friendly cell rendering (percentages, dashes for None).

    NumPy scalar floats take the float path too (``np.float32`` is not
    a ``float`` subclass, so a bare ``isinstance(value, float)`` check
    would let it bypass rounding), and non-finite values -- NaN *and*
    both infinities -- all render as ``--``.
    """
    if value is None:
        return "--"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):  # NaN, inf, -inf
            return "--"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_percent(value: float | None, digits: int = 2) -> str:
    """Render a 0..1 ratio as a percentage string."""
    if value is None or value != value:
        return "--"
    return f"{100.0 * value:.{digits}f}%"


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table."""
    rendered = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    out = []
    if title:
        out.append(title)
    out.append(separator)
    out.append(line(list(headers)))
    out.append(separator)
    for row in rendered:
        out.append(line(row))
    out.append(separator)
    return "\n".join(out)
