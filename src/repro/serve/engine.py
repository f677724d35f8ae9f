"""Stacked-tree batched inference: the serving hot path.

The seed implementation of :meth:`repro.ml.bagging.Bagging.predict_proba`
walked the estimators one by one, paying the full per-level NumPy
bookkeeping once per tree.  :class:`StackedEnsemble` flattens *all* trees
of an ensemble into one contiguous node table (feature, threshold, left,
right, leaf value) and scores sample matrices in bounded-memory chunks.

Two kernels execute the traversal:

* a small C kernel, compiled on first use with the system C compiler and
  loaded through :mod:`ctypes` -- the sample-outer loop walks all trees
  for one sample while its feature row sits in cache (an order of
  magnitude faster than the per-estimator loop);
* a pure-NumPy depth-first partition kernel, used when the C kernel
  cannot be compiled (see :mod:`repro._ckernel`).

Both kernels accumulate per-sample leaf values in estimator order, so the
ensemble probability is **bit-identical** to the per-estimator loop kept
as the test oracle (``tests/serve/predict_oracle.py``) -- the same
float64 additions happen in the same order.  ``repro.attack.framework``
and ``repro.attack.topk`` inherit the fast path automatically because
``Bagging.predict_proba`` now routes through this engine.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import _ckernel
from ..ml.tree import DecisionTreeBase

#: Samples scored per kernel invocation; bounds transient memory at
#: ``O(chunk)`` regardless of how many pairs one request carries.
DEFAULT_CHUNK_SIZE = 262_144

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* Walk every stacked tree for every sample, accumulating leaf values in
 * tree order (bit-identical to a sequential per-estimator loop).  The
 * sample-outer loop keeps the sample's feature row hot in cache across
 * all trees. */
void repro_predict_stacked(
    const double *X, long n, int n_features,
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    const double *leaf_value,
    const int32_t *roots, int n_trees,
    double *out)
{
    for (long s = 0; s < n; s++) {
        const double *row = X + s * (long)n_features;
        double acc = 0.0;
        for (int t = 0; t < n_trees; t++) {
            int32_t node = roots[t];
            int32_t l;
            while ((l = left[node]) >= 0) {
                node = (row[feature[node]] <= threshold[node]) ? l : right[node];
            }
            acc += leaf_value[node];
        }
        out[s] = acc;
    }
}
"""

_SIGNATURES = {
    "repro_predict_stacked": (
        [ctypes.c_void_p, ctypes.c_long, ctypes.c_int]
        + [ctypes.c_void_p] * 6
        + [ctypes.c_int, ctypes.c_void_p],
        None,
    ),
}


def _kernel() -> "ctypes.CDLL | None":
    """The compiled traversal kernel, or ``None`` (NumPy fallback)."""
    return _ckernel.load("serve", _KERNEL_SOURCE, _SIGNATURES)


def _leaf_values(tree: DecisionTreeBase) -> np.ndarray:
    """Per-node Eq. (1) probabilities, prior-filled for empty leaves.

    Matches :meth:`DecisionTreeBase.predict_proba` exactly: the same
    float64 division on the same counts, the training prior where a leaf
    saw no samples.
    """
    frozen = tree._tree
    assert frozen is not None, "fit() first"
    total = frozen.pos + frozen.neg
    values = np.full(frozen.n_nodes, tree._prior)
    nonempty = total > 0
    values[nonempty] = frozen.pos[nonempty] / total[nonempty]
    return values


@dataclass
class StackedEnsemble:
    """All trees of an ensemble flattened into contiguous node arrays.

    ``left[node] < 0`` marks a leaf; child indices are global (already
    offset per tree).  ``leaf_soft`` holds the Eq. (1) leaf probability,
    ``leaf_hard`` its thresholded 0/1 vote -- soft and hard voting are
    the same traversal over a different value column.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_soft: np.ndarray
    leaf_hard: np.ndarray
    roots: np.ndarray
    n_features: int
    voting: str = "soft"

    @classmethod
    def from_trees(
        cls,
        trees: Sequence[DecisionTreeBase],
        voting: str = "soft",
    ) -> "StackedEnsemble":
        """Stack fitted trees (estimators of one ensemble) into arrays."""
        if not trees:
            raise ValueError("need at least one fitted tree")
        if voting not in ("soft", "hard"):
            raise ValueError(f"unknown voting scheme {voting!r}")
        n_features = trees[0].n_features_
        if n_features is None or any(t.n_features_ != n_features for t in trees):
            raise ValueError("trees disagree on feature count (all must be fitted)")
        feats, thrs, lefts, rights, values, roots = [], [], [], [], [], []
        offset = 0
        for tree in trees:
            frozen = tree._tree
            assert frozen is not None, "fit() first"
            roots.append(offset)
            feats.append(frozen.feature)
            thrs.append(frozen.threshold)
            left = frozen.left.copy()
            right = frozen.right.copy()
            internal = left >= 0
            left[internal] += offset
            right[internal] += offset
            lefts.append(left)
            rights.append(right)
            values.append(_leaf_values(tree))
            offset += frozen.n_nodes
        leaf_soft = np.concatenate(values)
        return cls(
            feature=np.concatenate(feats).astype(np.int32),
            threshold=np.ascontiguousarray(np.concatenate(thrs), dtype=np.float64),
            left=np.concatenate(lefts).astype(np.int32),
            right=np.concatenate(rights).astype(np.int32),
            leaf_soft=np.ascontiguousarray(leaf_soft, dtype=np.float64),
            leaf_hard=(leaf_soft >= 0.5).astype(np.float64),
            roots=np.array(roots, dtype=np.int32),
            n_features=int(n_features),
            voting=voting,
        )

    @classmethod
    def from_model(cls, model) -> "StackedEnsemble":
        """Stack a fitted :class:`~repro.ml.bagging.Bagging` (or subclass),
        or wrap a single fitted tree as a one-tree ensemble."""
        estimators = getattr(model, "estimators_", None)
        if estimators is not None:
            if not estimators:
                raise RuntimeError("fit() first")
            return cls.from_trees(estimators, voting=model.voting)
        return cls.from_trees([model])

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    # -- kernels --------------------------------------------------------

    def _run_c(
        self, lib: ctypes.CDLL, X: np.ndarray, values: np.ndarray, out: np.ndarray
    ) -> None:
        """Score one contiguous chunk through the compiled kernel."""

        def ptr(array: np.ndarray) -> ctypes.c_void_p:
            return ctypes.c_void_p(array.ctypes.data)

        lib.repro_predict_stacked(
            ptr(X), ctypes.c_long(len(X)), ctypes.c_int(self.n_features),
            ptr(self.feature), ptr(self.threshold),
            ptr(self.left), ptr(self.right), ptr(values),
            ptr(self.roots), ctypes.c_int(self.n_trees), ptr(out),
        )

    def _run_numpy(self, X: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
        """Pure-NumPy fallback: depth-first sample partitioning per tree.

        Routes each tree's whole sample block down the tree by splitting
        row-index sets at each node, accumulating leaf values into
        ``out`` in tree order (same additions as the C kernel).
        """
        n = len(X)
        out[:] = 0.0
        columns = np.ascontiguousarray(X.T)
        all_rows = np.arange(n)
        for root in self.roots:
            stack: list[tuple[int, np.ndarray]] = [(int(root), all_rows)]
            while stack:
                node, rows = stack.pop()
                left_child = self.left[node]
                if left_child < 0:
                    out[rows] += values[node]
                    continue
                go_left = (
                    columns[self.feature[node]][rows] <= self.threshold[node]
                )
                rows_right = rows[~go_left]
                rows_left = rows[go_left]
                if len(rows_right):
                    stack.append((int(self.right[node]), rows_right))
                if len(rows_left):
                    stack.append((int(left_child), rows_left))

    # -- inference ------------------------------------------------------

    def predict_proba(
        self, X: np.ndarray, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> np.ndarray:
        """Ensemble probability per sample (paper Eq. 3), chunked.

        Runs the compiled kernel when it loaded and the NumPy traversal
        otherwise; both produce bit-identical output.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        lib = _kernel()
        values = self.leaf_soft if self.voting == "soft" else self.leaf_hard
        n = len(X)
        out = np.empty(n)
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            chunk = np.ascontiguousarray(X[start:stop])
            if lib is not None:
                self._run_c(lib, chunk, values, out[start:stop])
            else:
                self._run_numpy(chunk, values, out[start:stop])
        return out / self.n_trees

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction at threshold ``t`` (paper Eq. 2)."""
        return (self.predict_proba(X) >= threshold).astype(int)
