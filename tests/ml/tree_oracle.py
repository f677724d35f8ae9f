"""Reference tree pipeline: per-node argsorts, Python prune and freeze.

:class:`OracleREPTree` and :class:`OracleRandomTree` are the library
trees fitted by the plain pipeline both fit engines must reproduce node
for node, whether or not the C kernel loaded: the reference grower
below -- at every node, each candidate feature column is stably
argsorted and scanned for the information-gain-maximizing midpoint
(first maximum per feature, strict ``>`` across features) -- followed by
the library's Python ``_route``, ``_prune`` and ``_freeze``.  Node order
and candidate-feature sampling match the engines, so a RandomTree's RNG
stream stays in sync.
"""

from __future__ import annotations

import numpy as np

from repro.ml.bagging import Bagging
from repro.ml.fit_engine import _Node, _entropy_scalar, _entropy_terms
from repro.ml.tree import DEFAULT_MAX_DEPTH, DecisionTreeBase, RandomTree, REPTree


def _scan_sorted(
    xs: np.ndarray,
    ys: np.ndarray,
    total_pos: float,
    min_samples_leaf: int,
    min_gain: float,
    parent_entropy: float,
) -> tuple[float, float] | None:
    """Best (threshold, gain) of one feature already in sorted order.

    Candidates are midpoints between consecutive distinct sorted values;
    gain is the information gain of the induced binary partition.
    """
    n = len(ys)
    if xs[0] == xs[-1]:
        return None
    cum_pos = np.cumsum(ys)
    left_n = np.arange(1, n)
    left_pos = cum_pos[:-1]
    left_neg = left_n - left_pos
    right_n = n - left_n
    right_pos = total_pos - left_pos
    right_neg = right_n - right_pos
    valid = (xs[:-1] < xs[1:]) & (left_n >= min_samples_leaf) & (
        right_n >= min_samples_leaf
    )
    if not valid.any():
        return None
    child_entropy = (
        left_n * _entropy_terms(left_pos, left_neg)
        + right_n * _entropy_terms(right_pos, right_neg)
    ) / n
    gain = parent_entropy - child_entropy
    gain[~valid] = -np.inf
    k = int(np.argmax(gain))
    g = float(gain[k])
    if g <= min_gain:
        return None
    return float((xs[k] + xs[k + 1]) / 2.0), g


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
    min_gain: float,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gain) over the candidate features."""
    n = len(y)
    total_pos = float(y.sum())
    total_neg = n - total_pos
    parent_entropy = _entropy_scalar(total_pos, total_neg)
    best: tuple[int, float, float] | None = None
    for f in feature_indices:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        found = _scan_sorted(
            x[order], y[order], total_pos, min_samples_leaf, min_gain,
            parent_entropy,
        )
        if found is None:
            continue
        threshold, g = found
        if best is None or g > best[2]:
            best = (int(f), threshold, g)
    return best


def grow_reference(tree: DecisionTreeBase, X: np.ndarray, y: np.ndarray) -> _Node:
    """Grow ``tree``'s tree on ``(X, y)`` with per-node argsorts."""

    def new_node(ys: np.ndarray) -> _Node:
        pos = float(ys.sum())
        return _Node(grow_pos=pos, grow_neg=float(len(ys) - pos))

    root = new_node(y)
    stack: list[tuple[_Node, np.ndarray, np.ndarray, int]] = [(root, X, y, 0)]
    while stack:
        node, Xn, yn, d = stack.pop()
        pos, neg = node.grow_pos, node.grow_neg
        if (
            len(yn) < 2 * tree.min_samples_leaf
            or pos == 0
            or neg == 0
            or (tree.max_depth is not None and d >= tree.max_depth)
        ):
            continue
        split = _best_split(
            Xn,
            yn,
            tree._candidate_features(Xn.shape[1]),
            tree.min_samples_leaf,
            tree.min_gain,
        )
        if split is None:
            continue
        feature, threshold, _gain = split
        mask = Xn[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = new_node(yn[mask])
        node.right = new_node(yn[~mask])
        stack.append((node.left, Xn[mask], yn[mask], d + 1))
        stack.append((node.right, Xn[~mask], yn[~mask], d + 1))
    return root


class _ReferenceGrower:
    """Fits through the Python pipeline even when the fit kernel loaded."""

    def _fit_tree(self, X: np.ndarray, y: np.ndarray):
        return self._fit_numpy(X, y, *self._grow_and_prune_rows(len(y)))

    def _grow(self, X: np.ndarray, y: np.ndarray) -> _Node:
        return grow_reference(self, X, y)


class OracleDecisionTree(_ReferenceGrower, DecisionTreeBase):
    """:class:`DecisionTreeBase` (every feature, no pruning) fitted by the
    reference pipeline."""


class OracleREPTree(_ReferenceGrower, REPTree):
    """:class:`REPTree` fitted by the reference pipeline."""


class OracleRandomTree(_ReferenceGrower, RandomTree):
    """:class:`RandomTree` fitted by the reference pipeline."""


def oracle_bagging(n_estimators: int = 10, seed: int = 0) -> Bagging:
    """``Bagging(n_estimators, seed)`` over :class:`OracleREPTree` bases."""
    return Bagging(
        base_factory=lambda rng: OracleREPTree(seed=rng),
        n_estimators=n_estimators,
        seed=seed,
    )


def oracle_random_forest(n_estimators: int = 100, seed: int = 0) -> Bagging:
    """``RandomForest(n_estimators, seed)`` over :class:`OracleRandomTree`."""
    return Bagging(
        base_factory=lambda rng: OracleRandomTree(
            max_depth=DEFAULT_MAX_DEPTH, min_samples_leaf=1, seed=rng
        ),
        n_estimators=n_estimators,
        seed=seed,
    )
