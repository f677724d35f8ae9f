"""Pluggable classifier backends: protocol, registry, and adapters.

The attack framework historically hard-wired the paper's tree ensembles.
This module makes the model a first-class *backend*: a uniform contract

* ``fit(X, y, seed)``      -- construct + fit the underlying model; the
  seed is threaded to every backend the same way (deterministic backends
  simply ignore it), which is what makes fold seeding uniform across the
  classifier bake-off;
* ``predict_proba(X)``     -- P(y=1) per row;
* ``get_params()``         -- JSON-able constructor hyper-parameters,
  sufficient to rebuild an equivalent unfitted backend;
* ``to_state()``           -- ``(arrays, params)``: every array the
  forward pass reads plus JSON-able metadata (always including
  ``n_features``);
* ``from_state(arrays, params)`` -- exact inference round-trip:
  ``predict_proba`` of the restored backend is bit-identical.

plus a string-keyed registry (:func:`register_backend` /
:func:`get_backend` / :func:`list_backends` / :func:`create_backend`).
``attack.framework`` resolves ``AttackConfig.backend`` through the
registry, ``experiments.extension_classifiers`` builds its bake-off rows
from it, and both model stores -- feature-cache entries and registry
artifacts (``serve.artifacts``) -- persist exactly ``to_state``; a new
model family plugs into all of them by registering one class.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar

import numpy as np

from .bagging import Bagging, RandomTreeFactory
from .forest import RandomForest
from .knn import KNNClassifier
from .logistic import LogisticRegression
from .mlp import MLPClassifier
from .tree import DEFAULT_MAX_DEPTH, _FrozenTree


#: Stacked tree-node arrays of a tree-ensemble state, with their dtypes.
_NODE_DTYPES = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "pos": np.float64,
    "neg": np.float64,
}


class BackendError(ValueError):
    """Unknown backend name or invalid backend registration."""


class ClassifierBackend:
    """Base class for backends (the protocol above, plus ``build``).

    Subclasses implement :meth:`build` (an unfitted underlying model for
    a seed) and :meth:`get_params`; ``fit``/``predict_proba`` delegate
    to the built model, which is exposed as ``model_`` so existing
    code paths (the attack framework, the stacked-tree engine) keep
    seeing the concrete classifier classes.
    """

    #: Registry key; set by each concrete backend.
    name: ClassVar[str] = ""

    def __init__(self) -> None:
        self.model_: Any = None

    # -- construction ---------------------------------------------------

    def build(self, seed: int | np.random.Generator = 0) -> Any:
        """An unfitted underlying classifier for ``seed``."""
        raise NotImplementedError

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        seed: int | np.random.Generator = 0,
    ) -> "ClassifierBackend":
        """Construct the underlying model from ``seed`` and fit it."""
        self.model_ = self.build(seed)
        self.model_.fit(X, y)
        return self

    # -- inference ------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.model_ is None:
            raise RuntimeError("fit() first")
        return self.model_.predict_proba(X)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)

    # -- serialization --------------------------------------------------

    def get_params(self) -> dict[str, Any]:
        """JSON-able constructor hyper-parameters."""
        raise NotImplementedError

    def to_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """``(arrays, params)`` capturing exact inference state."""
        raise NotImplementedError

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict[str, Any]
    ) -> "ClassifierBackend":
        """Rebuild a fitted backend from :meth:`to_state` output."""
        raise NotImplementedError


# -- registry -----------------------------------------------------------

_REGISTRY: dict[str, type[ClassifierBackend]] = {}


def register_backend(
    name: str, backend: type[ClassifierBackend], replace: bool = False
) -> None:
    """Register a backend class under ``name``."""
    if not name:
        raise BackendError("backend name must be non-empty")
    if not replace and name in _REGISTRY:
        raise BackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = backend


def get_backend(name: str) -> type[ClassifierBackend]:
    """The backend class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown classifier backend {name!r}; "
            f"registered: {', '.join(list_backends())}"
        ) from None


def list_backends() -> list[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def create_backend(name: str, **params: Any) -> ClassifierBackend:
    """Instantiate the named backend with constructor ``params``."""
    backend = get_backend(name)
    try:
        return backend(**params)
    except TypeError as error:
        raise BackendError(f"bad parameters for backend {name!r}: {error}")


# -- tree-ensemble adapters ---------------------------------------------


class _TreeEnsembleBackend(ClassifierBackend):
    """Shared serialization for Bagging-family backends.

    The state stacks every estimator's frozen node arrays
    (``feature``/``threshold``/``left``/``right``/``pos``/``neg``, with
    *local* child indices): tree ``t`` occupies
    ``[offsets[t], offsets[t + 1])`` and ``priors[t]`` is its class
    prior.  ``params`` is :meth:`get_params` plus ``n_features``.
    """

    #: Constructor keys ``from_state`` restores (subclass-specific).
    _INIT_KEYS: ClassVar[tuple[str, ...]] = ()

    def to_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        if self.model_ is None or not self.model_.estimators_:
            raise RuntimeError("cannot serialize an unfitted backend")
        trees = self.model_.estimators_
        frozen = [tree._tree for tree in trees]
        arrays = {
            key: np.concatenate([getattr(f, key) for f in frozen])
            for key in _NODE_DTYPES
        }
        offsets = np.zeros(len(frozen) + 1, dtype=np.int64)
        np.cumsum([f.n_nodes for f in frozen], out=offsets[1:])
        arrays["offsets"] = offsets
        arrays["priors"] = np.array([tree._prior for tree in trees])
        params = dict(self.get_params(), n_features=int(trees[0].n_features_))
        return arrays, params

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict[str, Any]
    ) -> "_TreeEnsembleBackend":
        backend = cls(**{key: params[key] for key in cls._INIT_KEYS})
        # build() installs the backend's own (picklable) base factory.
        model = backend.model_ = backend.build(0)
        offsets = np.asarray(arrays["offsets"])
        for t, prior in enumerate(np.asarray(arrays["priors"])):
            lo, hi = int(offsets[t]), int(offsets[t + 1])
            tree = model.base_factory(model.rng)
            tree._tree = _FrozenTree(
                **{
                    key: np.asarray(arrays[key][lo:hi], dtype=dtype)
                    for key, dtype in _NODE_DTYPES.items()
                }
            )
            tree._prior = float(prior)
            tree.n_features_ = int(params["n_features"])
            model.estimators_.append(tree)
        return backend


class BaggingBackend(_TreeEnsembleBackend):
    """The paper's classifier: Bagging of REPTrees (or RandomTrees)."""

    name = "bagging"
    _INIT_KEYS = ("n_estimators", "voting", "base")

    def __init__(
        self,
        n_estimators: int = 10,
        voting: str = "soft",
        base: str = "reptree",
    ) -> None:
        super().__init__()
        if base not in ("reptree", "randomtree"):
            raise ValueError(f"unknown base estimator {base!r}")
        self.n_estimators = n_estimators
        self.voting = voting
        self.base = base

    def build(self, seed: int | np.random.Generator = 0) -> Bagging:
        if self.base == "randomtree":
            return Bagging(
                base_factory=RandomTreeFactory(min_samples_leaf=1),
                n_estimators=self.n_estimators,
                seed=seed,
                voting=self.voting,
            )
        return Bagging(
            n_estimators=self.n_estimators,
            seed=seed,
            voting=self.voting,
        )

    def get_params(self) -> dict[str, Any]:
        return {
            "n_estimators": self.n_estimators,
            "voting": self.voting,
            "base": self.base,
        }


class RandomForestBackend(_TreeEnsembleBackend):
    """RandomForest (the paper's earlier classifier, Weka default 100)."""

    name = "randomforest"
    _INIT_KEYS = ("n_estimators", "max_depth", "min_samples_leaf")

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        min_samples_leaf: int = 1,
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def build(self, seed: int | np.random.Generator = 0) -> RandomForest:
        return RandomForest(
            n_estimators=self.n_estimators,
            seed=seed,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
        )

    def get_params(self) -> dict[str, Any]:
        return {
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
        }


# -- deterministic adapters ---------------------------------------------


class KNNBackend(ClassifierBackend):
    """k-nearest-neighbors; deterministic, so the seed is a no-op."""

    name = "knn"

    def __init__(self, k: int = 5) -> None:
        super().__init__()
        self.k = k

    def build(self, seed: int | np.random.Generator = 0) -> KNNClassifier:
        return KNNClassifier(k=self.k)

    def get_params(self) -> dict[str, Any]:
        return {"k": self.k}

    def to_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        model = self.model_
        if model is None:
            raise RuntimeError("cannot serialize an unfitted backend")
        arrays = {
            # The standardized training matrix the KD-tree indexes; the
            # rebuilt cKDTree answers queries identically.
            "X": np.asarray(model._tree.data, dtype=np.float64),
            "y": np.asarray(model._y, dtype=np.float64),
            "mean": model._mean,
            "std": model._std,
        }
        return arrays, dict(self.get_params(), n_features=len(model._mean))

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict[str, Any]
    ) -> "KNNBackend":
        from scipy.spatial import cKDTree

        backend = cls(k=int(params["k"]))
        model = KNNClassifier(k=backend.k)
        model._mean = np.asarray(arrays["mean"], dtype=np.float64)
        model._std = np.asarray(arrays["std"], dtype=np.float64)
        model._tree = cKDTree(np.asarray(arrays["X"], dtype=np.float64))
        model._y = np.asarray(arrays["y"], dtype=np.float64)
        backend.model_ = model
        return backend


class LogisticBackend(ClassifierBackend):
    """L2 logistic regression; deterministic, so the seed is a no-op."""

    name = "logistic"

    def __init__(
        self,
        learning_rate: float = 0.5,
        iterations: int = 300,
        l2: float = 1e-4,
    ) -> None:
        super().__init__()
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.l2 = l2

    def build(
        self, seed: int | np.random.Generator = 0
    ) -> LogisticRegression:
        return LogisticRegression(
            learning_rate=self.learning_rate,
            iterations=self.iterations,
            l2=self.l2,
        )

    def get_params(self) -> dict[str, Any]:
        return {
            "learning_rate": self.learning_rate,
            "iterations": self.iterations,
            "l2": self.l2,
        }

    def to_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        model = self.model_
        if model is None or model.coef_ is None:
            raise RuntimeError("cannot serialize an unfitted backend")
        arrays = {
            "coef": model.coef_,
            "intercept": np.array([model.intercept_], dtype=np.float64),
            "mean": model._mean,
            "std": model._std,
        }
        return arrays, dict(self.get_params(), n_features=len(model.coef_))

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict[str, Any]
    ) -> "LogisticBackend":
        backend = cls(
            learning_rate=float(params["learning_rate"]),
            iterations=int(params["iterations"]),
            l2=float(params["l2"]),
        )
        model = LogisticRegression(
            learning_rate=backend.learning_rate,
            iterations=backend.iterations,
            l2=backend.l2,
        )
        model.coef_ = np.asarray(arrays["coef"], dtype=np.float64)
        model.intercept_ = float(np.asarray(arrays["intercept"]).ravel()[0])
        model._mean = np.asarray(arrays["mean"], dtype=np.float64)
        model._std = np.asarray(arrays["std"], dtype=np.float64)
        backend.model_ = model
        return backend


# -- the neural backend -------------------------------------------------


class MLPBackend(ClassifierBackend):
    """The from-scratch NumPy MLP (:mod:`repro.ml.mlp`)."""

    name = "mlp"

    def __init__(self, **params: Any) -> None:
        super().__init__()
        # Validate eagerly: a bad hidden_layers/batch_size should fail
        # at configuration time, not inside a pool worker mid-run.
        self._params = dict(params)
        MLPClassifier(**self._params)

    def build(self, seed: int | np.random.Generator = 0) -> MLPClassifier:
        return MLPClassifier(seed=seed, **self._params)

    def get_params(self) -> dict[str, Any]:
        probe = MLPClassifier(**self._params)
        return probe.get_params()

    def to_state(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        if self.model_ is None:
            raise RuntimeError("cannot serialize an unfitted backend")
        return self.model_.to_state()

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], params: dict[str, Any]
    ) -> "MLPBackend":
        model = MLPClassifier.from_state(arrays, params)
        backend = cls(**model.get_params())
        backend.model_ = model
        return backend


for _backend in (
    BaggingBackend,
    RandomForestBackend,
    KNNBackend,
    LogisticBackend,
    MLPBackend,
):
    register_backend(_backend.name, _backend)
