"""Proximity attack (paper Section III-H).

PA must commit to exactly *one* candidate per target v-pin: the
geometrically nearest member of a per-v-pin **PA-LoC** (ties broken by
higher classifier probability, then randomly).  The PA-LoC is the top
``fraction * n_vpins`` candidates by probability; the fraction itself is
chosen by the paper's validation procedure -- an 80/20 v-pin split of the
training designs, scanning a grid of fractions and keeping the one with
the best validation success rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..splitmfg.split import SplitView
from .config import AttackConfig
from .framework import evaluate_attack, train_attack
from .result import AttackResult

#: Default PA-LoC fraction grid scanned during validation.
DEFAULT_PA_FRACTIONS: tuple[float, ...] = (
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.10,
)


def pa_success_rate(
    result: AttackResult,
    pa_fraction: float | None = None,
    threshold: float = 0.5,
    targets: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Success rate of the proximity attack on one result.

    With ``pa_fraction`` the PA-LoC of every target is its top
    ``max(1, round(fraction * n))`` candidates by probability; otherwise a
    fixed probability ``threshold`` is used (the [18] baseline behaviour).
    """
    rng = rng or np.random.default_rng(0)
    n = result.n_vpins
    if n == 0:
        return 0.0
    arr = result.view.arrays()
    candidates = result.per_vpin_candidates()
    target_ids = np.arange(n) if targets is None else np.asarray(targets, dtype=int)
    successes = 0
    evaluated = 0
    for v in target_ids:
        vpin = result.view.vpins[v]
        if not vpin.matches:
            continue
        evaluated += 1
        partners, probs = candidates[v]
        if len(partners) == 0:
            continue
        if pa_fraction is not None:
            k = max(1, int(round(pa_fraction * n)))
            if k < len(partners):
                top = np.argpartition(probs, -k)[-k:]
                partners, probs = partners[top], probs[top]
        else:
            keep = probs >= threshold
            partners, probs = partners[keep], probs[keep]
            if len(partners) == 0:
                continue
        distance = np.abs(arr["vx"][partners] - arr["vx"][v]) + np.abs(
            arr["vy"][partners] - arr["vy"][v]
        )
        nearest = distance == distance.min()
        if nearest.sum() > 1:
            best_p = probs[nearest].max()
            tie = nearest & (probs == best_p)
            choices = np.nonzero(tie)[0]
            pick = int(choices[rng.integers(len(choices))])
        else:
            pick = int(np.argmax(nearest))
        if int(partners[pick]) in vpin.matches:
            successes += 1
    return successes / evaluated if evaluated else 0.0


@dataclass
class ValidatedPA:
    """Outcome of the validation-based proximity attack for one fold."""

    design_name: str
    config_name: str
    best_fraction: float
    validation_rates: dict[float, float]
    success_rate: float
    validation_time: float
    attack_time: float
    #: The test-fold evaluation the success rate was measured on.
    result: AttackResult


def validate_pa_fraction(
    config: AttackConfig,
    training_views: list[SplitView],
    fractions: tuple[float, ...] = DEFAULT_PA_FRACTIONS,
    seed: int = 0,
    holdout: float = 0.2,
) -> tuple[float, dict[float, float], float]:
    """Pick the PA-LoC fraction by the paper's 80/20 validation.

    Returns ``(best_fraction, per-fraction mean success, elapsed_time)``.
    """
    import time

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    masks = [rng.random(len(view)) >= holdout for view in training_views]
    trained = train_attack(config, training_views, seed=seed, allowed=masks)
    rates: dict[float, list[float]] = {f: [] for f in fractions}
    for view, mask in zip(training_views, masks):
        result = evaluate_attack(trained, view)
        held_out = np.nonzero(~mask)[0]
        for fraction in fractions:
            rates[fraction].append(
                pa_success_rate(
                    result,
                    pa_fraction=fraction,
                    targets=held_out,
                    rng=np.random.default_rng(seed + 1),
                )
            )
    mean_rates = {f: float(np.mean(r)) if r else 0.0 for f, r in rates.items()}
    best = max(mean_rates, key=lambda f: mean_rates[f])
    return best, mean_rates, time.perf_counter() - start


def run_validated_pa(
    config: AttackConfig,
    views: list[SplitView],
    test_index: int,
    fractions: tuple[float, ...] = DEFAULT_PA_FRACTIONS,
    seed: int = 0,
) -> ValidatedPA:
    """Full validation-based PA for one leave-one-out fold."""
    import time

    test_view = views[test_index]
    training_views = views[:test_index] + views[test_index + 1 :]
    best, mean_rates, validation_time = validate_pa_fraction(
        config, training_views, fractions, seed=seed
    )
    start = time.perf_counter()
    trained = train_attack(config, training_views, seed=seed)
    result = evaluate_attack(trained, test_view)
    success = pa_success_rate(
        result, pa_fraction=best, rng=np.random.default_rng(seed + 2)
    )
    return ValidatedPA(
        design_name=test_view.design_name,
        config_name=config.name,
        best_fraction=best,
        validation_rates=mean_rates,
        success_rate=success,
        validation_time=validation_time,
        attack_time=time.perf_counter() - start,
        result=result,
    )
