"""From-scratch machine-learning substrate (Weka-equivalent components)."""

from .backends import (
    BackendError,
    ClassifierBackend,
    create_backend,
    get_backend,
    list_backends,
    register_backend,
)
from .bagging import Bagging
from .calibration import ReliabilityCurve, brier_score, calibration_report, reliability_curve
from .feature_metrics import (
    abs_correlation,
    equal_frequency_bins,
    fisher_ratio,
    information_gain,
    rank_features,
)
from .forest import RandomForest
from .knn import KNNClassifier
from .linear import LinearRegression
from .logistic import LogisticRegression
from .mlp import MLPClassifier
from .tree import DecisionTreeBase, RandomTree, REPTree

__all__ = [
    "BackendError",
    "Bagging",
    "ClassifierBackend",
    "DecisionTreeBase",
    "KNNClassifier",
    "LinearRegression",
    "LogisticRegression",
    "MLPClassifier",
    "REPTree",
    "RandomForest",
    "RandomTree",
    "ReliabilityCurve",
    "abs_correlation",
    "brier_score",
    "calibration_report",
    "create_backend",
    "equal_frequency_bins",
    "fisher_ratio",
    "get_backend",
    "information_gain",
    "list_backends",
    "rank_features",
    "register_backend",
    "reliability_curve",
]
