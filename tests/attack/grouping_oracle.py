"""Reference per-v-pin grouping: one Python append per pair end.

:func:`oracle_per_vpin_candidates` is the pair-by-pair loop that
:meth:`~repro.attack.result.AttackResult.per_vpin_candidates` must
reproduce exactly: for pair ``k`` it appends ``j[k]`` to ``i[k]``'s
partners, then ``i[k]`` to ``j[k]``'s, each with ``float(prob[k])``.
Partner order is the order the proximity attack's ``argpartition``
boundary and random tie-break see, so it is part of the contract, and
so are the dtypes (``int`` partners, ``float64`` probabilities).
"""

from __future__ import annotations

import numpy as np

from repro.attack.result import AttackResult


def oracle_per_vpin_candidates(
    result: AttackResult,
) -> list[tuple[np.ndarray, np.ndarray]]:
    partners: list[list[int]] = [[] for _ in range(result.n_vpins)]
    probs: list[list[float]] = [[] for _ in range(result.n_vpins)]
    for i, j, p in zip(result.pair_i, result.pair_j, result.prob):
        partners[i].append(int(j))
        probs[i].append(float(p))
        partners[j].append(int(i))
        probs[j].append(float(p))
    return [
        (np.array(ps, dtype=int), np.array(pp))
        for ps, pp in zip(partners, probs)
    ]
