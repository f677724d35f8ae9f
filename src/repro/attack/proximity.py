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
from typing import Callable, Sequence

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


def _pick(distance: list[float], probs: list[float], rng: np.random.Generator) -> int:
    """Index of the proximity pick among one PA-LoC's candidates.

    The nearest candidate; among several nearest, the most probable;
    among several of those, a uniform draw from ``rng``, in candidate
    order (``rng`` is untouched unless several are nearest).
    """
    closest = min(distance)
    nearest = [i for i, d in enumerate(distance) if d == closest]
    if len(nearest) == 1:
        return nearest[0]
    best = max(probs[i] for i in nearest)
    choices = [i for i in nearest if probs[i] == best]
    return choices[int(rng.integers(len(choices)))]


def _picks(
    result: AttackResult,
    targets: np.ndarray,
    sizes: Sequence[int | None],
    threshold: float,
    rng_for: Callable[[int], np.random.Generator],
) -> np.ndarray:
    """Every target's proximity pick under every PA-LoC rule, in one pass.

    Rule ``r`` keeps a target's top ``sizes[r]`` candidates by
    probability, or, when ``sizes[r]`` is ``None``, those at
    ``threshold`` or above.  Returns a ``(len(targets), len(sizes))``
    array of picked partner ids, ``-1`` where the PA-LoC is empty.

    A target is decided here, without a draw, when its pick does not
    depend on which of several equal probabilities fills the top-K
    boundary (the order ``argpartition`` leaves them in is host
    specific) and no random tie-break is needed.  The remaining targets
    go through the per-target selection with ``rng_for(r)``, in target
    order, so every draw lands exactly where a target-by-target loop
    would make it.
    """
    offsets, partners, probs = result.grouped()
    arr = result.view.arrays()
    picks = np.full((len(targets), len(sizes)), -1, dtype=np.int64)
    lo = offsets[targets]
    lengths = offsets[targets + 1] - lo
    rows = np.flatnonzero(lengths)
    if len(rows) == 0:
        return picks
    owners, lo, m = targets[rows], lo[rows], lengths[rows]
    start = np.cumsum(m) - m
    total = int(start[-1] + m[-1])
    segment = np.repeat(np.arange(len(rows)), m)
    gather = np.arange(total) + np.repeat(lo - start, m)
    owner, q, p = owners[segment], partners[gather], probs[gather]
    # Per-pair L1 distances, in candidate order (the tie branch slices
    # them) and, like the rest, by probability descending (stable).
    pair_distance = np.abs(arr["vx"][q] - arr["vx"][owner]) + np.abs(
        arr["vy"][q] - arr["vy"][owner]
    )
    order = np.lexsort((-p, segment))
    p, q, distance = p[order], q[order], pair_distance[order]
    by_distance = np.argsort(distance)
    ranked = distance[by_distance]
    d = np.empty(total, dtype=np.int64)
    d[by_distance] = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
    position = np.arange(total)
    seg_first = np.zeros(total, dtype=bool)
    seg_first[start] = True
    # Running best of every prefix: nearest, then (by the order) most
    # probable.  ``best[x]`` is its position, ``ties[x]`` how many
    # candidates of the prefix share its distance and probability.
    shift = segment * total
    nearest = np.minimum.accumulate(d - shift) + shift
    improved = seg_first.copy()
    improved[1:] |= nearest[1:] < nearest[:-1]
    best = np.maximum.accumulate(np.where(improved, position, 0))
    same = np.cumsum((d == nearest) & (p == p[best]))
    ties = same - same[best] + 1
    # Runs of equal probability: where each starts, and its nearest member.
    run_first = seg_first
    run_first[1:] |= p[1:] != p[:-1]
    run_start = np.maximum.accumulate(np.where(run_first, position, 0))
    run_nearest = np.minimum.reduceat(d, np.flatnonzero(run_first))[
        np.cumsum(run_first) - 1
    ]

    keep = np.empty((len(rows), len(sizes)), dtype=np.int64)
    for r, size in enumerate(sizes):
        if size is None:
            keep[:, r] = np.add.reduceat((p >= threshold).astype(np.int64), start)
        else:
            keep[:, r] = size
    kept = np.minimum(keep, m[:, None])
    last = start[:, None] + np.maximum(kept, 1) - 1
    # A top-K boundary that splits a run of equal probabilities.
    split = (keep < m[:, None]) & (p[np.minimum(last + 1, total - 1)] == p[last])
    above = np.maximum(run_start[last] - 1, 0)
    decided = np.where(
        split,
        (run_start[last] > start[:, None])
        & (ties[above] == 1)
        & (d[best[above]] <= run_nearest[last]),
        ties[last] == 1,
    )
    chosen = q[best[np.where(split, above, last)]]
    picks[rows] = np.where((kept > 0) & decided, chosen, -1)

    tied = (kept > 0) & ~decided
    if not tied.any():
        return picks
    bounds = [(int(a), int(b), int(c)) for a, b, c in zip(lo, m, start)]
    for r, size in enumerate(sizes):
        rng = None
        for k in np.flatnonzero(tied[:, r]).tolist():
            a, length, at = bounds[k]
            candidates = partners[a : a + length]
            cand_probs = probs[a : a + length]
            cand_distance = pair_distance[at : at + length]
            if size is None:
                within = np.flatnonzero(cand_probs >= threshold)
            elif size < length:
                within = np.argpartition(cand_probs, -size)[-size:]
            else:
                within = slice(None)
            rng = rng if rng is not None else rng_for(r)
            pick = _pick(
                cand_distance[within].tolist(), cand_probs[within].tolist(), rng
            )
            picks[rows[k], r] = candidates[within][pick]
    return picks


def _loc_size(fraction: float, n: int) -> int:
    """PA-LoC size of ``fraction``: ``max(1, round(fraction * n))``."""
    return max(1, int(round(fraction * n)))


def _success_rates(
    result: AttackResult,
    sizes: Sequence[int | None],
    threshold: float,
    targets: np.ndarray | None,
    rng_for: Callable[[int], np.random.Generator],
) -> list[float]:
    """Share of the matched targets whose pick is a true match, per rule.

    Targets without a hidden connection are skipped: they neither count
    nor draw.
    """
    n = result.n_vpins
    if n == 0:
        return [0.0] * len(sizes)
    view = result.view
    target_ids = np.arange(n) if targets is None else np.asarray(targets, dtype=int)
    matched = np.bincount(view.match_codes() // n, minlength=n) > 0
    target_ids = target_ids[matched[target_ids]]
    if len(target_ids) == 0:
        return [0.0] * len(sizes)
    picks = _picks(result, target_ids, sizes, threshold, rng_for)
    hits = (picks >= 0) & view.are_matches(target_ids[:, None], picks)
    return (hits.sum(axis=0) / len(target_ids)).tolist()


def pa_success_rates(
    result: AttackResult,
    fractions: Sequence[float],
    targets: np.ndarray | None = None,
    seed: int = 0,
) -> list[float]:
    """Proximity-attack success rate at each PA-LoC fraction, in one pass.

    Equal to ``[pa_success_rate(result, f, targets=targets,
    rng=np.random.default_rng(seed)) for f in fractions]``: each fraction
    breaks its random ties with a fresh generator seeded ``seed``.
    """
    generator = np.random.default_rng(seed)
    seeded = generator.bit_generator.state

    def rng_for(r: int) -> np.random.Generator:
        generator.bit_generator.state = seeded  # rewound for each fraction
        return generator

    sizes = [_loc_size(f, result.n_vpins) for f in fractions]
    # Fractions with one PA-LoC size score alike: same rule, same draws.
    distinct = sorted(set(sizes))
    rates = _success_rates(result, distinct, 0.0, targets, rng_for)
    return [rates[distinct.index(size)] for size in sizes]


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
    Random ties draw from ``rng`` (default: ``default_rng(0)``).
    """
    size = None if pa_fraction is None else _loc_size(pa_fraction, result.n_vpins)
    (rate,) = _success_rates(result, [size], threshold, targets, _generator(rng))
    return rate


def proximity_picks(
    result: AttackResult,
    pa_fraction: float | None = None,
    threshold: float = 0.5,
    targets: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Each target's proximity pick (partner id, ``-1`` for none).

    The PA-LoC rule and tie-breaks are :func:`pa_success_rate`'s; every
    target is picked, with or without a hidden connection.
    """
    size = None if pa_fraction is None else _loc_size(pa_fraction, result.n_vpins)
    target_ids = (
        np.arange(result.n_vpins) if targets is None else np.asarray(targets, dtype=int)
    )
    return _picks(result, target_ids, [size], threshold, _generator(rng))[:, 0]


def _generator(
    rng: np.random.Generator | None,
) -> Callable[[int], np.random.Generator]:
    if rng is not None:
        return lambda r: rng
    return lambda r: np.random.default_rng(0)


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
        scores = pa_success_rates(result, fractions, held_out, seed + 1)
        for fraction, rate in zip(fractions, scores):
            rates[fraction].append(rate)
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
