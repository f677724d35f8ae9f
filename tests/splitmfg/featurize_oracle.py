"""Reference featurizer: ``compute_pair_features`` behind the buffer API.

:class:`OracleFeaturizer` is :class:`~repro.splitmfg.featurize_engine
.PairFeaturizer` with both engines replaced by
:func:`~repro.splitmfg.pair_features.compute_pair_features`, the plain
per-feature implementation of Section III-B.  It runs the same buffer,
legality-fold and chunking contract as the engines, so every contract
test can check the oracle alongside them.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import counter
from repro.splitmfg.featurize_engine import PairFeaturizer
from repro.splitmfg.pair_features import FEATURES_11, compute_pair_features
from repro.splitmfg.split import SplitView


class OracleFeaturizer(PairFeaturizer):
    """:class:`PairFeaturizer` whose rows come from ``compute_pair_features``."""

    def __init__(self, view: SplitView, features: tuple[str, ...] = FEATURES_11) -> None:
        super().__init__(view, features)
        self.view = view
        self._kernel = None
        self.engine = "reference"
        self._chunks = counter("featurize_chunks", engine=self.engine)

    def _numpy_rows(self, i: np.ndarray, j: np.ndarray, out: np.ndarray) -> None:
        out[: len(i)] = compute_pair_features(self.view, i, j, self.features)
