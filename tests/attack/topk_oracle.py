"""Reference top-K merge: one ``argsort`` per touched v-pin.

:class:`OracleTopKTracker` is :class:`~repro.attack.topk.TopKTracker`
with the batched merge replaced by the plain per-v-pin loop it must
reproduce byte for byte.  For each touched v-pin it sorts the row
[K stored entries in stored order, then the new candidates in arrival
order] with NumPy's default ``argsort`` and keeps the last K indices,
reversed.  ``tie_kind`` swaps in another sort kind, which changes only
who wins ties -- the tests use it to prove their streams are
tie-sensitive.
"""

from __future__ import annotations

import numpy as np

from repro.attack.topk import TopKTracker


class OracleTopKTracker(TopKTracker):
    """:class:`TopKTracker` whose merge is the per-v-pin reference loop."""

    def __init__(self, n_vpins: int, k: int, tie_kind: str | None = None) -> None:
        super().__init__(n_vpins, k)
        self.tie_kind = tie_kind

    def _merge_side(self, ids: np.ndarray, partners: np.ndarray, probs: np.ndarray) -> None:
        order = np.argsort(ids, kind="stable")
        ids, partners, probs = ids[order], partners[order], probs[order]
        boundaries = np.nonzero(np.diff(ids))[0] + 1
        for chunk_ids, chunk_partners, chunk_probs in zip(
            np.split(ids, boundaries),
            np.split(partners, boundaries),
            np.split(probs, boundaries),
        ):
            v = int(chunk_ids[0])
            merged_p = np.concatenate([self._prob[v], chunk_probs])
            merged_partner = np.concatenate([self._partner[v], chunk_partners])
            top = np.argsort(merged_p, kind=self.tie_kind)[::-1][: self.k]
            self._prob[v] = merged_p[top]
            self._partner[v] = merged_partner[top]


def assert_same_state(tracker: TopKTracker, oracle: TopKTracker) -> None:
    """Full ``(n, k)`` state equality, row order included."""
    partner, prob = tracker.state()
    want_partner, want_prob = oracle.state()
    np.testing.assert_array_equal(partner, want_partner)
    np.testing.assert_array_equal(prob, want_prob)
