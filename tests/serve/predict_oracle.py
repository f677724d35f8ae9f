"""Reference ensemble inference: one ``predict_proba`` per estimator.

:func:`looped_predict_proba` is paper Eq. (3) written the plain way --
sum each tree's own Eq. (1) probabilities (or 0/1 votes, for hard
voting) in estimator order and divide by the ensemble size.  The
stacked-tree engine (:mod:`repro.serve.engine`) must reproduce it byte
for byte with either of its kernels.
"""

from __future__ import annotations

import numpy as np

from repro.ml.bagging import Bagging


def looped_predict_proba(model: Bagging, X: np.ndarray) -> np.ndarray:
    """Ensemble probability of a fitted :class:`Bagging`, tree by tree."""
    if not model.estimators_:
        raise RuntimeError("fit() first")
    X = np.asarray(X, dtype=float)
    total = np.zeros(len(X))
    for estimator in model.estimators_:
        proba = estimator.predict_proba(X)
        total += proba if model.voting == "soft" else (proba >= 0.5).astype(float)
    return total / model.n_estimators
