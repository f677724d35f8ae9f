"""Reference proximity attack: one Python iteration per target v-pin.

:func:`oracle_pa_success_rate` is the target-by-target loop that
:func:`~repro.attack.proximity.pa_success_rate` and
:func:`~repro.attack.proximity.pa_success_rates` must reproduce exactly,
rates *and* generator state.  Per matched target it takes the v-pin's
candidates in pair order, keeps the top ``k`` by ``argpartition`` (or
those at ``threshold`` or above), picks the nearest, breaks distance
ties by the higher probability and the rest with ``rng``.
:func:`oracle_proximity_picks` is the same selection for every target,
returning the picked partner ids (``-1`` for an empty PA-LoC).
"""

from __future__ import annotations

import numpy as np

from repro.attack.result import AttackResult


def _select(
    result: AttackResult,
    v: int,
    pa_fraction: float | None,
    threshold: float,
    rng: np.random.Generator,
) -> int:
    n = result.n_vpins
    arr = result.view.arrays()
    partners, probs = result.per_vpin_candidates()[v]
    if len(partners) == 0:
        return -1
    if pa_fraction is not None:
        k = max(1, int(round(pa_fraction * n)))
        if k < len(partners):
            top = np.argpartition(probs, -k)[-k:]
            partners, probs = partners[top], probs[top]
    else:
        keep = probs >= threshold
        partners, probs = partners[keep], probs[keep]
        if len(partners) == 0:
            return -1
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
    return int(partners[pick])


def oracle_pa_success_rate(
    result: AttackResult,
    pa_fraction: float | None = None,
    threshold: float = 0.5,
    targets: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    rng = rng or np.random.default_rng(0)
    n = result.n_vpins
    if n == 0:
        return 0.0
    target_ids = np.arange(n) if targets is None else np.asarray(targets, dtype=int)
    successes = 0
    evaluated = 0
    for v in target_ids:
        vpin = result.view.vpins[v]
        if not vpin.matches:
            continue
        evaluated += 1
        pick = _select(result, int(v), pa_fraction, threshold, rng)
        if pick >= 0 and pick in vpin.matches:
            successes += 1
    return successes / evaluated if evaluated else 0.0


def oracle_proximity_picks(
    result: AttackResult,
    pa_fraction: float | None = None,
    threshold: float = 0.5,
    targets: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    rng = rng or np.random.default_rng(0)
    target_ids = (
        np.arange(result.n_vpins) if targets is None else np.asarray(targets, dtype=int)
    )
    return np.array(
        [_select(result, int(v), pa_fraction, threshold, rng) for v in target_ids],
        dtype=np.int64,
    )
