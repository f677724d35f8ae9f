"""Shared experiment machinery: suite/view caching and output plumbing.

Every experiment module exposes ``run(scale=..., seed=...) -> ExperimentOutput``
and can be executed directly (``python -m repro.experiments.tableN``).
``scale`` multiplies benchmark sizes; 1.0 is the repository's "full"
reproduction scale, smaller values keep CI benches fast.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Any

from ..layout.design import Design
from ..runtime import spawn_seeds
from ..splitmfg.split import SplitView
from ..splitmfg.vpin_features import make_split_view
from ..synth.benchmarks import build_suite

#: Default scale for directly-run experiments.
DEFAULT_SCALE = 0.5

_suite_cache: dict[float, list[Design]] = {}
_view_cache: dict[tuple[float, int], list[SplitView]] = {}


def validate_scale(scale: float) -> float:
    """Reject non-positive / non-finite benchmark scales up front.

    A bad ``--scale`` otherwise surfaces deep inside the generator as an
    empty placement or a zero-size die; fail here with a clear message.
    """
    try:
        value = float(scale)
    except (TypeError, ValueError):
        raise ValueError(f"scale must be a number, got {scale!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")
    return value


def positive_scale(text: str) -> float:
    """``argparse`` type for ``--scale``: a positive finite float."""
    try:
        return validate_scale(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def get_suite(scale: float = DEFAULT_SCALE) -> list[Design]:
    """The five-design suite at ``scale`` (cached per process)."""
    scale = validate_scale(scale)
    if scale not in _suite_cache:
        _suite_cache[scale] = build_suite(scale=scale)
    return _suite_cache[scale]


def get_views(split_layer: int, scale: float = DEFAULT_SCALE) -> list[SplitView]:
    """Split views of the whole suite at one layer (cached per process)."""
    key = (scale, split_layer)
    if key not in _view_cache:
        _view_cache[key] = [
            make_split_view(design, split_layer) for design in get_suite(scale)
        ]
    return _view_cache[key]


def clear_caches() -> None:
    """Drop cached suites/views (tests use this to control memory)."""
    _suite_cache.clear()
    _view_cache.clear()


def fold_seeds(seed: int, n_folds: int) -> list[int]:
    """Independent per-fold seeds, stable under any execution order.

    Every experiment that iterates LOOCV folds derives its fold RNGs
    here (``SeedSequence.spawn`` under the hood), so a fold's result
    never depends on which folds ran before it.
    """
    return spawn_seeds(seed, n_folds)


@dataclass
class ExperimentOutput:
    """Rendered report plus the structured values behind it."""

    experiment: str
    report: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.report


def standard_cli(description: str) -> argparse.Namespace:
    """Common ``--scale/--seed`` CLI for ``python -m`` execution."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scale", type=positive_scale, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()
