"""Decision trees: the base classifiers of the paper's Bagging model.

Two Weka-equivalent variants are provided:

* :class:`RandomTree` -- an unpruned tree that examines a random feature
  subset at every node (the base classifier of Weka's ``RandomForest``,
  used in the paper's prior version [18]);
* :class:`REPTree` -- a tree grown with information gain and then pruned
  by *reduced-error pruning* against a held-out fold (Weka's default
  Bagging base classifier, adopted by the paper for its ~10x speedup).

Leaves store positive/negative training-sample counts so that the soft
voting probability of paper Eq. (1),
``p_i(v, v') = P_i / (P_i + N_i)``, can be evaluated directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fit_engine
from .fit_engine import _Node, grow_tree


@dataclass
class _FrozenTree:
    """Array-encoded tree for vectorized inference."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self.left < 0).sum())

    def depth(self) -> int:
        """Maximum root-to-leaf depth (root = 0)."""
        depths = np.zeros(self.n_nodes, dtype=int)
        for node in range(self.n_nodes):
            for child in (self.left[node], self.right[node]):
                if child >= 0:
                    depths[child] = depths[node] + 1
        return int(depths.max()) if self.n_nodes else 0


#: Default depth cap.  Weka leaves depth unlimited, but on barely separable
#: data (exactly what two-level pruning mines) unlimited entropy-greedy
#: growth degenerates into O(n)-deep chains and O(n^2) build time; a cap of
#: 25 leaves >3e7 leaves available and never binds on ordinary data.
DEFAULT_MAX_DEPTH = 25


class DecisionTreeBase:
    """Shared grow/freeze/predict machinery for both tree variants."""

    def __init__(
        self,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-7,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.rng = np.random.default_rng(seed)
        self._tree: _FrozenTree | None = None
        self._prior = 0.5
        self.n_features_: int | None = None

    # -- overridable ---------------------------------------------------

    def _candidate_features(self, n_features: int) -> np.ndarray:
        """Features examined at a node (all, by default)."""
        return np.arange(n_features)

    # -- fitting --------------------------------------------------------

    def _grow(self, X: np.ndarray, y: np.ndarray) -> _Node:
        """Grow a tree through :func:`repro.ml.fit_engine.grow_tree`."""
        root, _stats = grow_tree(
            X,
            y,
            candidate_features=self._candidate_features,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_gain=self.min_gain,
        )
        return root

    def _grow_and_prune_rows(
        self, n: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Rows to grow on (``None``: all) and the pruning fold (``None``:
        no pruning)."""
        return None, None

    def _route(self, root: _Node, X: np.ndarray, y: np.ndarray, field_prefix: str) -> None:
        """Accumulate per-node class counts of ``(X, y)`` into the tree."""
        pos_field = f"{field_prefix}_pos"
        neg_field = f"{field_prefix}_neg"
        stack: list[tuple[_Node, np.ndarray]] = [(root, np.arange(len(y)))]
        while stack:
            node, rows = stack.pop()
            pos = float(y[rows].sum())
            setattr(node, pos_field, getattr(node, pos_field) + pos)
            setattr(node, neg_field, getattr(node, neg_field) + len(rows) - pos)
            if node.is_leaf:
                continue
            if len(rows) == 0:
                empty = rows
                stack.append((node.left, empty))
                stack.append((node.right, empty))
                continue
            mask = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))

    def _freeze(self, root: _Node) -> _FrozenTree:
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        pos: list[float] = []
        neg: list[float] = []

        # Iterative pre-order emission; parents patch in child indices.
        stack: list[tuple[_Node, int, str]] = [(root, -1, "")]
        while stack:
            node, parent, side = stack.pop()
            idx = len(feature)
            feature.append(node.feature)
            threshold.append(node.threshold)
            left.append(-1)
            right.append(-1)
            pos.append(node.total_pos)
            neg.append(node.total_neg)
            if parent >= 0:
                if side == "L":
                    left[parent] = idx
                else:
                    right[parent] = idx
            if not node.is_leaf:
                stack.append((node.right, idx, "R"))
                stack.append((node.left, idx, "L"))
        return _FrozenTree(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            pos=np.array(pos),
            neg=np.array(neg),
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeBase":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y disagree on sample count")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty training set")
        if not ((y == 0.0) | (y == 1.0)).all():
            raise ValueError("tree labels must be 0 or 1")
        if not np.isfinite(X).all():
            raise ValueError("tree features must be finite")
        self.n_features_ = X.shape[1]
        self._prior = float(y.mean())
        self._tree = self._fit_tree(X, y)
        return self

    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> _FrozenTree:
        """Grow, prune, count and freeze one tree.

        One :func:`repro.ml.fit_engine.fit_tree_kernel` call when the fit
        kernel loaded, else the NumPy pipeline (:meth:`_fit_numpy`).
        """
        grow_rows, fold = self._grow_and_prune_rows(len(y))
        lib = fit_engine._kernel()
        if lib is None:
            return self._fit_numpy(X, y, grow_rows, fold)
        # A tree that examines every feature needs no per-node callback.
        samples = getattr(self._candidate_features, "__func__", None) is not (
            DecisionTreeBase._candidate_features
        )
        arrays, _stats = fit_engine.fit_tree_kernel(
            lib, X, y, grow_rows, fold,
            candidate_features=self._candidate_features if samples else None,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_gain=self.min_gain,
        )
        return _FrozenTree(*arrays)

    def _fit_numpy(
        self,
        X: np.ndarray,
        y: np.ndarray,
        grow_rows: np.ndarray | None,
        fold: np.ndarray | None,
    ) -> _FrozenTree:
        """Grow, prune against ``fold``, count every row, freeze."""
        if grow_rows is None:
            root = self._grow(X, y)
        else:
            root = self._grow(X[grow_rows], y[grow_rows])
        if fold is not None:
            self._route(root, X[fold], y[fold], "prune")
            self._prune(root)
        self._route(root, X, y, "total")
        return self._freeze(root)

    # -- inference ------------------------------------------------------

    def _leaf_indices(self, X: np.ndarray) -> np.ndarray:
        assert self._tree is not None, "fit() first"
        tree = self._tree
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            internal = tree.left[idx] >= 0
            if not internal.any():
                return idx
            rows = np.nonzero(internal)[0]
            nodes = idx[rows]
            go_left = (
                X[rows, tree.feature[nodes]] <= tree.threshold[nodes]
            )
            idx[rows] = np.where(
                go_left, tree.left[nodes], tree.right[nodes]
            )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-sample probability of the positive class, paper Eq. (1)."""
        X = np.asarray(X, dtype=float)
        if self.n_features_ is not None and X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        assert self._tree is not None, "fit() first"
        leaves = self._leaf_indices(X)
        pos = self._tree.pos[leaves]
        neg = self._tree.neg[leaves]
        total = pos + neg
        proba = np.full(len(X), self._prior)
        nonempty = total > 0
        proba[nonempty] = pos[nonempty] / total[nonempty]
        return proba

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)

    # -- introspection ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        assert self._tree is not None, "fit() first"
        return self._tree.n_nodes

    @property
    def n_leaves(self) -> int:
        assert self._tree is not None, "fit() first"
        return self._tree.n_leaves

    @property
    def depth(self) -> int:
        assert self._tree is not None, "fit() first"
        return self._tree.depth()


class RandomTree(DecisionTreeBase):
    """Unpruned tree over a random feature subset per node (Weka-style).

    The subset size is Weka's default ``int(log2(F)) + 1``.
    """

    def _candidate_features(self, n_features: int) -> np.ndarray:
        k = max(1, int(np.log2(n_features)) + 1)
        k = min(k, n_features)
        return self.rng.choice(n_features, size=k, replace=False)


class REPTree(DecisionTreeBase):
    """Information-gain tree with reduced-error pruning (Weka's REPTree).

    The training data is split into ``num_folds`` folds; the tree grows on
    ``num_folds - 1`` of them and is pruned bottom-up against the held-out
    fold: a subtree collapses to a leaf whenever the leaf's error on the
    pruning fold does not exceed the subtree's.  Leaf counts for Eq. (1)
    are then re-accumulated from *all* training data.
    """

    def __init__(
        self,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-7,
        num_folds: int = 3,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(max_depth, min_samples_leaf, min_gain, seed)
        if num_folds < 2:
            raise ValueError("num_folds must be >= 2")
        self.num_folds = num_folds

    def _grow_and_prune_rows(
        self, n: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        if n < self.num_folds:
            return None, None  # too little data to prune; grow only
        perm = self.rng.permutation(n)
        return perm[n // self.num_folds :], perm[: n // self.num_folds]

    def _prune(self, root: _Node) -> None:
        """Bottom-up reduced-error pruning (iterative post-order)."""
        subtree_error: dict[int, float] = {}

        def leaf_error(node: _Node) -> float:
            return node.prune_neg if node.majority_positive else node.prune_pos

        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf:
                subtree_error[id(node)] = leaf_error(node)
                continue
            if not expanded:
                stack.append((node, True))
                stack.append((node.left, False))
                stack.append((node.right, False))
                continue
            children_error = (
                subtree_error.pop(id(node.left))
                + subtree_error.pop(id(node.right))
            )
            collapsed = leaf_error(node)
            if collapsed <= children_error:
                node.make_leaf()
                subtree_error[id(node)] = collapsed
            else:
                subtree_error[id(node)] = children_error
