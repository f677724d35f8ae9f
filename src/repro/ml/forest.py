"""RandomForest: Bagging over unpruned random trees (Weka default: 100).

This is the classifier of the paper's earlier version [18] ("ML-Imp");
Table II compares it against Bagging-of-REPTrees, which achieves the same
attack quality at a fraction of the runtime.
"""

from __future__ import annotations

import numpy as np

from .bagging import Bagging, RandomTreeFactory
from .tree import DEFAULT_MAX_DEPTH


class RandomForest(Bagging):
    """Bagging with :class:`RandomTree` bases, Weka-default 100 trees."""

    def __init__(
        self,
        n_estimators: int = 100,
        seed: int | np.random.Generator = 0,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 1,
    ) -> None:
        super().__init__(
            base_factory=RandomTreeFactory(
                max_depth=max_depth, min_samples_leaf=min_samples_leaf
            ),
            n_estimators=n_estimators,
            seed=seed,
            voting="soft",
        )
