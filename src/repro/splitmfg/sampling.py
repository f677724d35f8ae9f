"""Sample generation for training and candidate enumeration for testing.

Implements Section III-B (balanced positive/negative samples), the
scalability neighborhood of Section III-D (``Imp`` configurations), and
the top-layer coordinate limit of Section III-G ("Y" configurations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np
from scipy.spatial import cKDTree

from .featurize_engine import PairFeaturizer
from .pair_features import legal_pair_mask
from .split import SplitView

#: Tolerance for "same coordinate" checks (router snaps to track grids, so
#: true equality is exact; this only absorbs float noise).
COORD_TOL = 1e-6

#: The paper's default neighborhood percentile (Section III-D).
DEFAULT_NEIGHBORHOOD_PERCENTILE = 90.0


def axis_aligned(
    arrays: Mapping[str, np.ndarray], i: np.ndarray, j: Any, axis: str
) -> np.ndarray:
    """Mask of the pairs ``(i[k], j[k])`` that share the ``axis`` coordinate.

    The top-layer limit of Section III-G: at the highest via layer a "Y"
    configuration only considers v-pins on the same ``y`` (``axis="y"``;
    ``"x"`` compares ``vx``).  ``arrays`` holds the view's ``vx``/``vy``
    columns; ``j`` may be a single index.
    """
    coords = arrays["vy" if axis == "y" else "vx"]
    return np.abs(coords[i] - coords[j]) <= COORD_TOL


@dataclass
class TrainingSet:
    """A balanced, featurized sample matrix ready for the classifier."""

    X: np.ndarray
    y: np.ndarray
    features: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if self.X.shape[1] != len(self.features):
            raise ValueError("X and feature names disagree on feature count")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())


def positive_pairs(view: SplitView) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth matching (and legal) pairs as index arrays ``i < j``."""
    pairs = view.match_pairs()
    if not pairs:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    i = np.array([p[0] for p in pairs], dtype=int)
    j = np.array([p[1] for p in pairs], dtype=int)
    legal = legal_pair_mask(view, i, j)
    return i[legal], j[legal]


def _is_match(view: SplitView, i: int, j: int) -> bool:
    return j in view.vpins[i].matches


def random_negative_pairs(
    view: SplitView,
    count: int,
    rng: np.random.Generator,
    max_tries_factor: int = 50,
    allowed: np.ndarray | None = None,
    y_aligned_only: bool = False,
    x_aligned_only: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random non-matching, legal pairs (ML configurations).

    With an alignment flag (the "Y" configurations), the partner is drawn
    from the v-pins sharing the first pick's aligned coordinate.  Pairs
    are canonicalized to ``i < j`` and never repeated: a "balanced"
    training set with ``(i, j)`` and ``(j, i)`` (or the same pair twice)
    would silently overweight duplicated negatives.
    """
    n = len(view)
    if n < 2 or count <= 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    out_i: list[int] = []
    out_j: list[int] = []
    tries = 0
    limit = count * max_tries_factor
    arr = view.arrays()
    out_area = arr["out_area"]
    pool = np.arange(n) if allowed is None else np.nonzero(allowed)[0]
    if len(pool) < 2:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    groups: dict[float, np.ndarray] | None = None
    if y_aligned_only or x_aligned_only:
        coords = arr["vy"] if y_aligned_only else arr["vx"]
        keys = np.round(coords[pool], 6)
        groups = {key: pool[keys == key] for key in np.unique(keys)}
    seen: set[tuple[int, int]] = set()
    while len(out_i) < count and tries < limit:
        tries += 1
        i = int(pool[rng.integers(len(pool))])
        if groups is not None:
            coords = arr["vy"] if y_aligned_only else arr["vx"]
            group = groups[np.round(coords[i], 6)]
            if len(group) < 2:
                continue
            j = int(group[rng.integers(len(group))])
        else:
            j = int(pool[rng.integers(len(pool))])
        if i == j or _is_match(view, i, j):
            continue
        if out_area[i] > 0 and out_area[j] > 0:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            continue
        seen.add(pair)
        out_i.append(pair[0])
        out_j.append(pair[1])
    return np.array(out_i, dtype=int), np.array(out_j, dtype=int)


class NeighborhoodIndex:
    """L1-radius neighbor lookup over a view's v-pins."""

    def __init__(self, view: SplitView, radius: float) -> None:
        self.view = view
        self.radius = radius
        arr = view.arrays()
        self._points = np.column_stack([arr["vx"], arr["vy"]])
        self._tree = cKDTree(self._points) if len(view) else None

    def neighbors(self, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists of ``owners`` as CSR ``(offsets, flat)``.

        Owner ``k``'s neighbors -- the v-pins other than ``owners[k]``
        within L1 ``radius`` of it -- are ``flat[offsets[k]:offsets[k+1]]``,
        in the KD tree's own order.  One multi-point query; unsorted, it
        lists each point's neighbors in the order a single-point query
        does, which the samplers' draws index into.
        """
        offsets = np.zeros(len(owners) + 1, dtype=np.int64)
        if self._tree is None or len(owners) == 0:
            return offsets, np.zeros(0, dtype=np.int64)
        found = self._tree.query_ball_point(
            self._points[owners], r=self.radius, p=1, return_sorted=False
        )
        lengths = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
        flat = np.fromiter(
            itertools.chain.from_iterable(found), dtype=np.int64, count=int(lengths.sum())
        )
        rows = np.repeat(np.arange(len(owners)), lengths)
        keep = flat != np.asarray(owners)[rows]
        np.cumsum(np.bincount(rows[keep], minlength=len(owners)), out=offsets[1:])
        return offsets, flat[keep]

    def candidate_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All legal pairs within the L1 radius, as index arrays i < j."""
        if self._tree is None:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        pairs = self._tree.query_pairs(r=self.radius, p=1, output_type="ndarray")
        if pairs.size == 0:
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        i, j = pairs[:, 0], pairs[:, 1]
        legal = legal_pair_mask(self.view, i, j)
        return i[legal], j[legal]


def neighborhood_fraction(
    views: list[SplitView],
    percentile: float = DEFAULT_NEIGHBORHOOD_PERCENTILE,
) -> float:
    """Neighborhood size from the training designs (Section III-D).

    The ManhattanVpin of every truly matching pair, *normalized by the
    design's half-perimeter*, is pooled over the training views; the
    requested percentile of that distribution is the neighborhood size
    (as a fraction, to be rescaled by the test design's half-perimeter).
    """
    normalized: list[np.ndarray] = []
    for view in views:
        distances = view.match_distances()
        half_perimeter = view.die_width + view.die_height
        if not (half_perimeter > 0):
            raise ValueError(
                f"view {view.design_name!r} has a degenerate die "
                f"({view.die_width} x {view.die_height}): cannot normalize "
                f"match distances by a non-positive half-perimeter"
            )
        if len(distances):
            normalized.append(distances / half_perimeter)
    if not normalized:
        raise ValueError("no matching pairs in any training view")
    pooled = np.concatenate(normalized)
    return float(np.percentile(pooled, percentile))


def neighborhood_radius(view: SplitView, fraction: float) -> float:
    """Rescale a normalized neighborhood fraction to this view's units."""
    half_perimeter = view.die_width + view.die_height
    if not (half_perimeter > 0):
        raise ValueError(
            f"view {view.design_name!r} has a degenerate die "
            f"({view.die_width} x {view.die_height}): the neighborhood "
            f"radius is undefined for a non-positive half-perimeter"
        )
    return fraction * half_perimeter


def neighborhood_negative_pairs(
    view: SplitView,
    count: int,
    index: NeighborhoodIndex,
    rng: np.random.Generator,
    y_aligned_only: bool = False,
    x_aligned_only: bool = False,
    max_tries_factor: int = 50,
    allowed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Non-matching legal pairs drawn from inside the neighborhood.

    With ``y_aligned_only`` (the "Y" configurations at the highest via
    layer) candidates must additionally share the v-pin y-coordinate.
    As with :func:`random_negative_pairs`, emitted pairs are canonical
    ``i < j`` and unique.
    """
    n = len(view)
    if n < 2 or count <= 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    arr = view.arrays()
    out_area = arr["out_area"]
    pool = np.arange(n) if allowed is None else np.nonzero(allowed)[0]
    if len(pool) < 2:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    out_lo: list[np.ndarray] = []
    out_hi: list[np.ndarray] = []
    accepted = 0
    seen = np.zeros(0, dtype=np.int64)
    tries = 0
    limit = count * max_tries_factor
    # Filtered neighbor lists of the owners drawn so far, as one flat
    # array: v-pin i's are flat[start[i]:start[i] + size[i]] once
    # ``queried[i]``.
    queried = np.zeros(n, dtype=bool)
    start = np.zeros(n, dtype=np.int64)
    size = np.zeros(n, dtype=np.int64)
    flat = np.zeros(0, dtype=np.int64)
    # Each batch draws its candidates (i ~ uniform(pool), then
    # j ~ uniform(filtered neighbors of i)) up front and rejects matches,
    # out-area pairs and duplicates, accepting in draw order.
    while accepted < count and tries < limit:
        batch = int(min(limit - tries, max(128, count - accepted)))
        tries += batch
        ii = pool[rng.integers(len(pool), size=batch)]
        u = rng.random(batch)
        new = np.unique(ii[~queried[ii]])
        if len(new):
            offsets, found = index.neighbors(new)
            rows = np.repeat(np.arange(len(new)), np.diff(offsets))
            keep = np.ones(len(found), dtype=bool)
            if allowed is not None:
                keep &= allowed[found]
            if y_aligned_only:
                keep &= axis_aligned(arr, found, new[rows], "y")
            if x_aligned_only:
                keep &= axis_aligned(arr, found, new[rows], "x")
            counts = np.bincount(rows[keep], minlength=len(new))
            start[new] = len(flat) + np.cumsum(counts) - counts
            size[new] = counts
            queried[new] = True
            flat = np.concatenate([flat, found[keep]])
        ok = size[ii] > 0
        ci = ii[ok].astype(np.int64)
        cj = flat[start[ci] + (u[ok] * size[ci]).astype(np.int64)]
        if len(ci):
            is_match = view.are_matches(ci, cj)
            ci, cj = ci[~is_match], cj[~is_match]
        if len(ci):
            keep = ~((out_area[ci] > 0) & (out_area[cj] > 0))
            ci, cj = ci[keep], cj[keep]
        if len(ci) == 0:
            continue
        lo = np.minimum(ci, cj)
        hi = np.maximum(ci, cj)
        codes = lo * n + hi
        # First occurrence of each code, in draw order, not accepted
        # before; as many as are still needed.
        first = np.sort(np.unique(codes, return_index=True)[1])
        first = first[~np.isin(codes[first], seen)][: count - accepted]
        out_lo.append(lo[first])
        out_hi.append(hi[first])
        seen = np.concatenate([seen, codes[first]])
        accepted += len(first)
    if not out_lo:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return np.concatenate(out_lo), np.concatenate(out_hi)


def max_chunk_rows(n: int, chunk_size: int) -> int:
    """Upper bound on the pairs one :func:`iter_all_pairs` chunk holds.

    Chunks are cut at whole-row boundaries, so the row that tips a chunk
    over ``chunk_size`` may overshoot by up to its own length (at most
    ``n - 1`` pairs, of which one was already counted).  Callers size
    preallocated featurization buffers with this.
    """
    return chunk_size + max(n - 2, 0)


def iter_all_pairs(
    n: int,
    chunk_size: int = 500_000,
    row_start: int = 0,
    row_stop: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield all unordered index pairs of ``range(n)`` in bounded chunks.

    Chunks are whole runs of "rows" of the strict upper triangle (row
    ``r`` pairs with every ``j > r``), cut greedily at the first row that
    brings a chunk to ``chunk_size`` pairs -- the same boundaries the
    seed's per-row accumulation loop produced, now computed arithmetically
    from the triangular cumulative counts.

    ``row_start``/``row_stop`` restrict iteration to triangle rows
    ``row_start <= r < row_stop`` (``None`` = all rows) so independent
    workers can each enumerate one shard of the pair space; chunk
    boundaries within a shard follow the same greedy rule.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if row_start < 0:
        raise ValueError(f"row_start must be >= 0, got {row_start}")
    if n < 2:
        return
    stop = n - 1 if row_stop is None else min(row_stop, n - 1)
    counts = np.arange(n - 1, 0, -1, dtype=np.int64)  # row r has n-1-r pairs
    ends = np.cumsum(counts)
    row = min(row_start, stop)
    base = int(ends[row - 1]) if row > 0 else 0
    while row < stop:
        # First row whose cumulative pair count reaches base + chunk_size
        # (clamped: the tail may fall short of a full chunk).
        cut = min(
            int(np.searchsorted(ends, base + chunk_size, side="left")),
            stop - 1,
        )
        rows = np.arange(row, cut + 1, dtype=np.int64)
        row_counts = counts[rows]
        starts = ends[rows] - row_counts - base  # chunk-relative row starts
        total = int(ends[cut] - base)
        i = np.repeat(rows, row_counts)
        # Within row r, chunk position p maps to j = p - start(r) + r + 1,
        # so j is a flat arange plus a repeated per-row offset.
        j = np.arange(total, dtype=np.int64)
        j += np.repeat(rows + 1 - starts, row_counts)
        yield i, j
        row = cut + 1
        base = int(ends[cut])


def build_training_set(
    views: list[SplitView],
    features: tuple[str, ...],
    rng: np.random.Generator,
    neighborhood: float | None = None,
    y_aligned_only: bool = False,
    x_aligned_only: bool = False,
    allowed: list[np.ndarray] | None = None,
) -> TrainingSet:
    """Assemble the balanced training set from the training views.

    ``neighborhood`` is the normalized neighborhood fraction (``None``
    for the unrestricted ML configurations).  Alignment flags implement
    the "Y" training-set limit: positives that violate the limit are
    dropped and negatives are drawn only from aligned pairs.  ``allowed``
    optionally gives one boolean mask per view restricting which v-pins
    may appear in samples (used by the proximity-attack validation,
    Section III-H).
    """
    if allowed is not None and len(allowed) != len(views):
        raise ValueError("allowed masks must parallel views")
    blocks_X: list[np.ndarray] = []
    blocks_y: list[np.ndarray] = []
    for view_index, view in enumerate(views):
        pos_i, pos_j = positive_pairs(view)
        mask = allowed[view_index] if allowed is not None else None
        if mask is not None and len(pos_i):
            keep = mask[pos_i] & mask[pos_j]
            pos_i, pos_j = pos_i[keep], pos_j[keep]
        if y_aligned_only and len(pos_i):
            keep = axis_aligned(view.arrays(), pos_i, pos_j, "y")
            pos_i, pos_j = pos_i[keep], pos_j[keep]
        if x_aligned_only and len(pos_i):
            keep = axis_aligned(view.arrays(), pos_i, pos_j, "x")
            pos_i, pos_j = pos_i[keep], pos_j[keep]
        n_pos = len(pos_i)
        if n_pos == 0:
            continue
        if neighborhood is None:
            neg_i, neg_j = random_negative_pairs(
                view,
                n_pos,
                rng,
                allowed=mask,
                y_aligned_only=y_aligned_only,
                x_aligned_only=x_aligned_only,
            )
        else:
            index = NeighborhoodIndex(view, neighborhood_radius(view, neighborhood))
            neg_i, neg_j = neighborhood_negative_pairs(
                view,
                n_pos,
                index,
                rng,
                y_aligned_only=y_aligned_only,
                x_aligned_only=x_aligned_only,
                allowed=mask,
            )
        featurizer = PairFeaturizer(view, features)
        blocks_X.append(featurizer.rows(pos_i, pos_j))
        blocks_X.append(featurizer.rows(neg_i, neg_j))
        blocks_y.append(np.ones(len(pos_i)))
        blocks_y.append(np.zeros(len(neg_i)))
    if not blocks_X:
        raise ValueError("no training samples could be generated")
    return TrainingSet(
        X=np.vstack(blocks_X), y=np.concatenate(blocks_y), features=features
    )
