"""Bounded-memory evaluation: per-v-pin top-K candidate tracking.

At split layer 4 the paper's designs have ~2e5 v-pins; recording all
C(n,2) pair probabilities (as :func:`repro.attack.framework
.evaluate_attack` does) would need ~2e10 entries.  The streaming
evaluator keeps, per v-pin, only its K best-scoring candidates while
chunks flow through the classifier -- memory O(n*K) regardless of how
many pairs are tested, at the cost of losing the exact global threshold
sweep below the per-v-pin cutoff.

For every metric computed above the cutoff the result is *exact*:
a pair survives iff it is in the top-K of at least one of its two
endpoints, and LoC sizes up to K per v-pin are unaffected.  Which of
several candidates tied *at* a v-pin's K-th best probability survives
follows the tie rule documented on :class:`TopKTracker`.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.metrics import counter
from ..splitmfg.split import SplitView
from .framework import TrainedAttack, score_candidates
from .result import AttackResult


#: Most merged-row entries (stored K plus arrivals, summed over v-pins)
#: that one batch of :meth:`TopKTracker._merge_side` builds at once.
#: Bounds the flat merge buffers to a few MB however large the merge.
MERGE_BATCH_ENTRIES = 1 << 17


class TopKTracker:
    """Streaming per-v-pin top-K accumulator.

    Fixed ``(n, K)`` arrays of partner ids and probabilities, each row
    best first; ``-1`` / ``-inf`` pad v-pins with fewer than K
    candidates.  ``update`` merges a scored chunk, ``merge_state``
    another tracker's state, and ``harvest`` returns the union of the
    per-v-pin lists as deduplicated pair arrays.

    **Tie rule.**  A merge forms, for each touched v-pin, the row [its K
    stored entries in stored order, then its new candidates in arrival
    order], sorts it with NumPy's default (unstable) ``argsort`` and
    keeps the last K indices, reversed.  Tree-ensemble probabilities tie
    constantly at the K boundary, and which tied candidate survives is
    whatever that sort does with exactly these row bytes.  Boundary-tie
    membership therefore depends on ``chunk_size``, on the shard count
    of a sharded pass, and on the CPU's SIMD sort kernel; every metric
    strictly above the K-th best probability does not.
    """

    def __init__(self, n_vpins: int, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = n_vpins
        self.k = k
        self._partner = np.full((n_vpins, k), -1, dtype=np.int64)
        self._prob = np.full((n_vpins, k), -np.inf)

    def _merge_side(self, ids: np.ndarray, partners: np.ndarray, probs: np.ndarray) -> None:
        # Group the arrivals by v-pin, keeping arrival order within a
        # group.  Only the ids are permuted; ``order`` maps a grouped
        # position back to its arrival.  The i side of iter_all_pairs and
        # merge_state arrive grouped already (a stable sort of a sorted
        # array is the identity), so they skip the sort.
        order = None
        if (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
        first = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        count = np.diff(np.append(first, len(ids)))
        # Visit v-pins by candidate count so that rows of equal length
        # sit next to each other in each batch's flat buffer.
        by_count = np.argsort(count, kind="stable")
        ends = np.cumsum(count[by_count] + self.k)
        lo = 0
        while lo < len(by_count):
            base = ends[lo - 1] if lo else 0
            hi = int(np.searchsorted(ends, base + MERGE_BATCH_ENTRIES, side="right"))
            batch = by_count[lo : max(hi, lo + 1)]
            self._merge_rows(
                ids[first[batch]], first[batch], count[batch], order, partners, probs
            )
            lo += len(batch)

    def _merge_rows(
        self,
        vs: np.ndarray,
        first: np.ndarray,
        count: np.ndarray,
        order: np.ndarray | None,
        partners: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        """Merge grouped arrivals ``first[g] : first[g] + count[g]`` into
        v-pin ``vs[g]``, for v-pins ordered by ``count``; ``order`` maps
        grouped positions to indices of ``partners`` / ``probs`` (``None``:
        the identity).

        Every merged row is laid out back to back in one flat buffer, so
        the rows of one length form a C-contiguous 2-D block.  NumPy's
        ``argsort(axis=1)`` sorts each row of such a block with the same
        1-D kernel it uses for a lone row, so one call per length gives
        the bytes a per-v-pin sort would -- ties included.
        """
        k = self.k
        length = count + k
        offset = np.cumsum(length) - length
        flat_p = np.empty(int(offset[-1] + length[-1]))
        flat_q = np.empty(len(flat_p), dtype=np.int64)
        stored = offset[:, None] + np.arange(k)
        flat_p[stored] = self._prob[vs]
        flat_q[stored] = self._partner[vs]
        # Arrival r of v-pin g moves from first[g] + r to offset[g] + k + r.
        before = np.cumsum(count) - count
        rank = np.arange(int(before[-1] + count[-1]))
        arrivals = rank + np.repeat(first - before, count)
        if order is not None:
            arrivals = order[arrivals]
        slot = rank + np.repeat(offset + k - before, count)
        flat_p[slot] = probs[arrivals]
        flat_q[slot] = partners[arrivals]
        top = np.empty((len(vs), k), dtype=np.int64)
        edges = [0, *(np.flatnonzero(np.diff(length)) + 1).tolist(), len(vs)]
        widths, starts = length.tolist(), offset.tolist()
        for a, b in zip(edges, edges[1:]):
            width, start = widths[a], starts[a]
            block = flat_p[start : start + (b - a) * width].reshape(b - a, width)
            top[a:b] = block.argsort(axis=1)[:, ::-1][:, :k]
        top += offset[:, None]
        self._prob[vs] = flat_p[top]
        self._partner[vs] = flat_q[top]

    def update(self, i: np.ndarray, j: np.ndarray, p: np.ndarray) -> None:
        """Merge a scored chunk of pairs (both directions)."""
        if len(i) == 0:
            return
        self._merge_side(i, j, p)
        self._merge_side(j, i, p)

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the raw ``(n, k)`` partner/probability arrays.

        O(n*k) regardless of how many pairs streamed through -- the
        cheap thing to ship back from a worker shard.
        """
        return self._partner.copy(), self._prob.copy()

    def merge_state(self, partner: np.ndarray, prob: np.ndarray) -> None:
        """Merge another tracker's :meth:`state` arrays into this one.

        Merging is order-sensitive only for exact probability ties, so a
        parent that merges shards in a fixed shard order gets the same
        result for any ``--jobs`` setting.
        """
        if partner.shape != (self.n, self.k) or prob.shape != (self.n, self.k):
            raise ValueError(
                f"state shape mismatch: expected {(self.n, self.k)}, "
                f"got {partner.shape} / {prob.shape}"
            )
        ids = np.repeat(np.arange(self.n), self.k)
        partners = np.asarray(partner).ravel()
        probs = np.asarray(prob).ravel()
        valid = partners >= 0
        if valid.any():
            self._merge_side(ids[valid], partners[valid], probs[valid])

    def harvest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deduplicated surviving pairs as ``(i, j, prob)`` with i < j."""
        rows = np.repeat(np.arange(self.n), self.k)
        partners = self._partner.ravel()
        probs = self._prob.ravel()
        valid = partners >= 0
        rows, partners, probs = rows[valid], partners[valid], probs[valid]
        lo = np.minimum(rows, partners)
        hi = np.maximum(rows, partners)
        keys = lo * self.n + hi
        _unique, first = np.unique(keys, return_index=True)
        return lo[first], hi[first], probs[first]


def evaluate_attack_topk(
    trained: TrainedAttack,
    view: SplitView,
    k: int = 64,
    chunk_size: int = 400_000,
) -> AttackResult:
    """Streaming counterpart of :func:`repro.attack.framework.evaluate_attack`.

    Produces an :class:`AttackResult` whose pairs are each endpoint's
    top-``k`` candidates; all LoC metrics up to ``k`` candidates per
    v-pin match the exact evaluation.
    """
    start = time.perf_counter()
    tracker = TopKTracker(len(view), k)
    n_evaluated = 0
    for i, j, _X, p in score_candidates(trained, view, chunk_size):
        tracker.update(i, j, p)
        n_evaluated += len(i)
    counter("pairs_featurized").inc(n_evaluated)
    counter("candidates_scored").inc(n_evaluated)
    pair_i, pair_j, prob = tracker.harvest()
    return AttackResult(
        view=view,
        pair_i=pair_i,
        pair_j=pair_j,
        prob=prob,
        config_name=f"{trained.config.name}+top{k}",
        train_time=trained.train_time,
        test_time=time.perf_counter() - start,
        n_pairs_evaluated=n_evaluated,
    )
