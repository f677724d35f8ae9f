"""Bootstrap aggregating with the paper's soft-voting combiner.

Paper Eq. (3): the ensemble probability is the plain average of the base
classifiers' leaf probabilities; Eq. (2) then thresholds it (default 0.5,
generalized to an arbitrary ``t`` to control LoC sizes, Section III-F).

Inference is delegated to the stacked-tree engine
(:mod:`repro.serve.engine`), which walks all estimators in one pass and
is bit-identical to averaging the estimators' own ``predict_proba``
(the per-estimator loop kept as the test oracle,
``tests/serve/predict_oracle.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tree import DEFAULT_MAX_DEPTH, DecisionTreeBase, RandomTree, REPTree


class REPTreeFactory:
    """Picklable default base factory.

    A closure here would make every fitted :class:`Bagging` unpicklable,
    which breaks shipping trained models to pool workers (the paper-scale
    sharded evaluator does exactly that).
    """

    def __call__(self, rng: np.random.Generator) -> "REPTree":
        return REPTree(seed=rng)


class RandomTreeFactory:
    """Picklable :class:`RandomTree` base factory (see above)."""

    def __init__(
        self,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 1,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def __call__(self, rng: np.random.Generator) -> "RandomTree":
        return RandomTree(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            seed=rng,
        )


class Bagging:
    """Bagging meta-classifier over any base classifier factory.

    ``base_factory`` receives a :class:`numpy.random.Generator` and must
    return an unfitted classifier with ``fit``/``predict_proba``.  The
    default builds Weka's default configuration: 10 REPTrees.
    """

    def __init__(
        self,
        base_factory: Callable[[np.random.Generator], DecisionTreeBase] | None = None,
        n_estimators: int = 10,
        seed: int | np.random.Generator = 0,
        voting: str = "soft",
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if voting not in ("soft", "hard"):
            raise ValueError(f"unknown voting scheme {voting!r}")
        self.base_factory = base_factory or REPTreeFactory()
        self.n_estimators = n_estimators
        self.rng = np.random.default_rng(seed)
        self.voting = voting
        self.estimators_: list[DecisionTreeBase] = []
        self._engine = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Bagging":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(y)
        if n == 0:
            raise ValueError("cannot fit on an empty training set")
        self.estimators_ = []
        self._engine = None
        for _ in range(self.n_estimators):
            rows = self.rng.integers(n, size=n)
            estimator = self.base_factory(
                np.random.default_rng(self.rng.integers(2**63))
            )
            estimator.fit(X[rows], y[rows])
            self.estimators_.append(estimator)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Ensemble probability per sample (paper Eq. 3).

        Scored through the stacked-tree engine (built lazily, cached
        until the next ``fit``); bit-identical to the per-estimator
        average.
        """
        if not self.estimators_:
            raise RuntimeError("fit() first")
        if self._engine is None:
            from ..serve.engine import StackedEnsemble

            self._engine = StackedEnsemble.from_trees(
                self.estimators_, voting=self.voting
            )
        return self._engine.predict_proba(X)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction at threshold ``t`` (paper Eq. 2)."""
        return (self.predict_proba(X) >= threshold).astype(int)
