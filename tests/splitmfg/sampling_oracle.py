"""Reference neighborhood sampler: one KD query and one mask per owner.

:func:`oracle_neighborhood_negative_pairs` is the batched rejection
sampler that :func:`~repro.splitmfg.sampling.neighborhood_negative_pairs`
must reproduce exactly, pairs *and* generator state.  Each batch draws
its owners ``i`` and uniforms ``u`` up front; every owner not seen before
gets its neighbor list from one single-point ``query_ball_point``
(:func:`oracle_neighbors_of`, in the tree's own order), filtered by the
``allowed`` mask and the alignment flags; then each owner's draws take
``neighbors[int(u * len(neighbors))]`` through an ``ii == i`` mask.
Candidates that are matches, out-area pairs or repeats are rejected,
and the first occurrences are accepted in draw order.
"""

from __future__ import annotations

import numpy as np

from repro.splitmfg.sampling import NeighborhoodIndex, axis_aligned
from repro.splitmfg.split import SplitView


def oracle_neighbors_of(index: NeighborhoodIndex, i: int) -> np.ndarray:
    """Indices (excluding ``i``) within L1 ``radius`` of v-pin ``i``."""
    if index._tree is None:
        return np.zeros(0, dtype=int)
    found = index._tree.query_ball_point(index._points[i], r=index.radius, p=1)
    return np.array([k for k in found if k != i], dtype=int)


def oracle_neighborhood_negative_pairs(
    view: SplitView,
    count: int,
    index: NeighborhoodIndex,
    rng: np.random.Generator,
    y_aligned_only: bool = False,
    x_aligned_only: bool = False,
    max_tries_factor: int = 50,
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    n = len(view)
    if n < 2 or count <= 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    arr = view.arrays()
    out_area = arr["out_area"]
    pool = np.arange(n) if allowed is None else np.nonzero(allowed)[0]
    if len(pool) < 2:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    match_codes = np.sort(np.array(
        [i * n + j for i, vpin in enumerate(view.vpins) for j in vpin.matches],
        dtype=np.int64,
    ))
    out_i: list[int] = []
    out_j: list[int] = []
    tries = 0
    limit = count * max_tries_factor
    seen: set[int] = set()
    neighbor_cache: dict[int, np.ndarray] = {}
    while len(out_i) < count and tries < limit:
        batch = int(min(limit - tries, max(128, count - len(out_i))))
        tries += batch
        ii = pool[rng.integers(len(pool), size=batch)]
        u = rng.random(batch)
        jj = np.full(batch, -1, dtype=np.int64)
        for i in np.unique(ii):
            neighbors = neighbor_cache.get(i)
            if neighbors is None:
                neighbors = oracle_neighbors_of(index, i)
                if allowed is not None and len(neighbors):
                    neighbors = neighbors[allowed[neighbors]]
                if y_aligned_only and len(neighbors):
                    neighbors = neighbors[axis_aligned(arr, neighbors, i, "y")]
                if x_aligned_only and len(neighbors):
                    neighbors = neighbors[axis_aligned(arr, neighbors, i, "x")]
                neighbor_cache[i] = neighbors
            if len(neighbors) == 0:
                continue
            sel = ii == i
            jj[sel] = neighbors[(u[sel] * len(neighbors)).astype(np.int64)]
        ok = jj >= 0
        ci, cj = ii[ok].astype(np.int64), jj[ok]
        if len(ci) and len(match_codes):
            is_match = np.isin(ci * n + cj, match_codes, assume_unique=False)
            ci, cj = ci[~is_match], cj[~is_match]
        if len(ci):
            keep = ~((out_area[ci] > 0) & (out_area[cj] > 0))
            ci, cj = ci[keep], cj[keep]
        if len(ci) == 0:
            continue
        lo = np.minimum(ci, cj)
        hi = np.maximum(ci, cj)
        codes = lo * n + hi
        _, first = np.unique(codes, return_index=True)
        for k in np.sort(first):
            code = int(codes[k])
            if code in seen:
                continue
            seen.add(code)
            out_i.append(int(lo[k]))
            out_j.append(int(hi[k]))
            if len(out_i) >= count:
                break
    return np.array(out_i, dtype=int), np.array(out_j, dtype=int)
