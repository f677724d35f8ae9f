"""Versioned serialization of trained models to ``.npz`` + JSON bundles.

An artifact is two sibling files sharing a stem (see ``ARTIFACTS.md``):

* ``<stem>.npz``  -- the model's inference arrays.  For tree ensembles,
  the flattened trees: all node arrays concatenated across estimators
  plus per-tree offsets and priors.  For the ``mlp`` kind (schema v2),
  the layer weights/biases and the input standardization vectors;
* ``<stem>.json`` -- the manifest: schema version, model kind and
  hyper-parameters, attack metadata (feature set, split layer,
  neighborhood, training designs) and the SHA-256 checksum of the
  ``.npz`` payload, verified on load.

Schema history: version 1 covered the four tree-ensemble kinds; version
2 adds the ``mlp`` kind and changes nothing about tree bundles, so v1
tree artifacts load and score bit-identically under a v2 reader
(``read_manifest`` accepts both).

Round-tripping is exact: a loaded model's ``predict_proba`` is
bit-identical to the in-memory model it was saved from, because
everything inference reads -- frozen node arrays, per-tree priors, MLP
weights, standardization vectors -- is restored verbatim.  Artifacts
capture *inference* state only; the RNG state of the original model is
not preserved, so refitting a loaded model starts from a fresh seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..ml.bagging import Bagging
from ..ml.forest import RandomForest
from ..ml.mlp import MLPClassifier
from ..ml.tree import DecisionTreeBase, RandomTree, REPTree, _FrozenTree

ARTIFACT_SCHEMA_VERSION = 2

#: Manifest versions this build can read (v1 = tree kinds only).
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: npz keys holding the concatenated per-node arrays.
_NODE_KEYS = ("feature", "threshold", "left", "right", "pos", "neg")


class ArtifactError(ValueError):
    """Base class for artifact load/save failures."""


class ArtifactIntegrityError(ArtifactError):
    """The ``.npz`` payload does not match the manifest checksum."""


class ArtifactSchemaError(ArtifactError):
    """The manifest's schema version is not supported."""


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_bundle(
    stem: str | Path,
    arrays: dict[str, np.ndarray],
    manifest_fields: dict[str, Any],
    meta: dict[str, Any],
    created_at: float,
) -> dict[str, Any]:
    """Write ``<stem>.npz`` + ``<stem>.json``; returns the manifest.

    Shared by every artifact kind: the npz holds ``arrays`` verbatim and
    the manifest records the schema version, the payload checksum, the
    kind-specific ``manifest_fields`` and the attack ``meta``.  The
    manifest is written last, to a temp file renamed into place, so a
    reader sees either no manifest or a complete one.
    """
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    npz_path = stem.parent / f"{stem.name}.npz"
    json_path = stem.parent / f"{stem.name}.json"
    np.savez_compressed(npz_path, **arrays)
    manifest = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        **manifest_fields,
        "arrays_file": npz_path.name,
        "arrays_sha256": _sha256(npz_path),
        "created_at": created_at or time.time(),
        "meta": meta,
    }
    # Per-writer temp name (a mkstemp file would be mode 0600).
    temp_path = json_path.with_name(
        f".{json_path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with open(temp_path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.replace(temp_path, json_path)
    except BaseException:
        temp_path.unlink(missing_ok=True)
        raise
    return manifest


def _estimator_params(tree: DecisionTreeBase) -> dict[str, Any]:
    """The constructor hyper-parameters of a fitted tree."""
    params: dict[str, Any] = {
        "max_depth": tree.max_depth,
        "min_samples_leaf": tree.min_samples_leaf,
        "min_gain": tree.min_gain,
    }
    if isinstance(tree, REPTree):
        params["num_folds"] = tree.num_folds
    return params


def _model_kind(model) -> tuple[str, str]:
    """``(kind, estimator_kind)`` labels for a supported model."""
    if isinstance(model, RandomForest):
        return "randomforest", "randomtree"
    if isinstance(model, Bagging):
        if not model.estimators_:
            raise ArtifactError("cannot package an unfitted ensemble")
        base = model.estimators_[0]
        if isinstance(base, REPTree):
            return "bagging", "reptree"
        if isinstance(base, RandomTree):
            return "bagging", "randomtree"
        raise ArtifactError(
            f"unsupported base estimator {type(base).__name__!r}"
        )
    if isinstance(model, REPTree):
        return "reptree", "reptree"
    if isinstance(model, RandomTree):
        return "randomtree", "randomtree"
    raise ArtifactError(f"unsupported model type {type(model).__name__!r}")


def _trees_of(model) -> list[DecisionTreeBase]:
    """The fitted trees of a model (the model itself for single trees)."""
    trees = model.estimators_ if isinstance(model, Bagging) else [model]
    if not trees or any(t._tree is None for t in trees):
        raise ArtifactError("cannot package an unfitted model")
    return trees


def _new_tree(kind: str, params: dict[str, Any]) -> DecisionTreeBase:
    """An unfitted estimator of the given kind/hyper-parameters."""
    if kind == "reptree":
        return REPTree(**params)
    if kind == "randomtree":
        return RandomTree(**params)
    raise ArtifactSchemaError(f"unknown estimator kind {kind!r}")


@dataclass
class ModelArtifact:
    """A trained model flattened to arrays plus its manifest metadata.

    ``feature``/``threshold``/``left``/``right``/``pos``/``neg`` are the
    node arrays of all trees concatenated; tree ``t`` occupies
    ``[offsets[t], offsets[t + 1])`` with *local* child indices.
    """

    kind: str
    estimator_kind: str
    voting: str
    estimator_params: dict[str, Any]
    n_features: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    offsets: np.ndarray
    priors: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0

    @property
    def n_estimators(self) -> int:
        return len(self.priors)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_model(cls, model, meta: dict[str, Any] | None = None) -> "ModelArtifact":
        """Package a fitted model (any of the four supported classes)."""
        kind, estimator_kind = _model_kind(model)
        trees = _trees_of(model)
        n_features = trees[0].n_features_
        if any(t.n_features_ != n_features for t in trees):
            raise ArtifactError("estimators disagree on feature count")
        offsets = np.zeros(len(trees) + 1, dtype=np.int64)
        blocks: dict[str, list[np.ndarray]] = {key: [] for key in _NODE_KEYS}
        priors = np.zeros(len(trees))
        for t, tree in enumerate(trees):
            frozen = tree._tree
            assert frozen is not None
            offsets[t + 1] = offsets[t] + frozen.n_nodes
            priors[t] = tree._prior
            blocks["feature"].append(frozen.feature)
            blocks["threshold"].append(frozen.threshold)
            blocks["left"].append(frozen.left)
            blocks["right"].append(frozen.right)
            blocks["pos"].append(frozen.pos)
            blocks["neg"].append(frozen.neg)
        voting = model.voting if isinstance(model, Bagging) else "soft"
        return cls(
            kind=kind,
            estimator_kind=estimator_kind,
            voting=voting,
            estimator_params=_estimator_params(trees[0]),
            n_features=int(n_features),
            feature=np.concatenate(blocks["feature"]),
            threshold=np.concatenate(blocks["threshold"]),
            left=np.concatenate(blocks["left"]),
            right=np.concatenate(blocks["right"]),
            pos=np.concatenate(blocks["pos"]),
            neg=np.concatenate(blocks["neg"]),
            offsets=offsets,
            priors=priors,
            meta=dict(meta or {}),
            created_at=time.time(),
        )

    # -- reconstruction -------------------------------------------------

    def _frozen_trees(self) -> list[_FrozenTree]:
        """Slice the stacked arrays back into per-tree frozen trees."""
        trees = []
        for t in range(self.n_estimators):
            lo, hi = int(self.offsets[t]), int(self.offsets[t + 1])
            trees.append(
                _FrozenTree(
                    feature=np.asarray(self.feature[lo:hi], dtype=np.int64),
                    threshold=np.asarray(self.threshold[lo:hi], dtype=np.float64),
                    left=np.asarray(self.left[lo:hi], dtype=np.int64),
                    right=np.asarray(self.right[lo:hi], dtype=np.int64),
                    pos=np.asarray(self.pos[lo:hi], dtype=np.float64),
                    neg=np.asarray(self.neg[lo:hi], dtype=np.float64),
                )
            )
        return trees

    def _restored_estimators(self) -> list[DecisionTreeBase]:
        """Fitted estimator objects rebuilt from the stacked arrays."""
        estimators = []
        for t, frozen in enumerate(self._frozen_trees()):
            tree = _new_tree(self.estimator_kind, self.estimator_params)
            tree._tree = frozen
            tree._prior = float(self.priors[t])
            tree.n_features_ = self.n_features
            estimators.append(tree)
        return estimators

    def to_model(self):
        """Rebuild the trained model; ``predict_proba`` is bit-identical
        to the model this artifact was packaged from."""
        estimators = self._restored_estimators()
        if self.kind in ("reptree", "randomtree"):
            if len(estimators) != 1:
                raise ArtifactSchemaError(
                    f"single-tree artifact holds {len(estimators)} trees"
                )
            return estimators[0]
        if self.kind == "randomforest":
            model: Bagging = RandomForest(n_estimators=self.n_estimators)
        elif self.kind == "bagging":
            params = dict(self.estimator_params)
            if self.estimator_kind == "randomtree":
                factory = lambda rng: RandomTree(seed=rng, **params)  # noqa: E731
            else:
                factory = lambda rng: REPTree(seed=rng, **params)  # noqa: E731
            model = Bagging(
                base_factory=factory,
                n_estimators=self.n_estimators,
                voting=self.voting,
            )
        else:
            raise ArtifactSchemaError(f"unknown model kind {self.kind!r}")
        model.estimators_ = estimators
        return model

    # -- persistence ----------------------------------------------------

    def save(self, stem: str | Path) -> dict[str, Any]:
        """Write ``<stem>.npz`` + ``<stem>.json``; returns the manifest."""
        arrays = {key: getattr(self, key) for key in _NODE_KEYS}
        arrays["offsets"] = self.offsets
        arrays["priors"] = self.priors
        return _write_bundle(
            stem,
            arrays,
            {
                "kind": self.kind,
                "estimator_kind": self.estimator_kind,
                "voting": self.voting,
                "n_estimators": self.n_estimators,
                "estimator_params": self.estimator_params,
                "n_features": self.n_features,
            },
            self.meta,
            self.created_at,
        )


@dataclass
class MLPArtifact:
    """A trained MLP's weights plus its manifest metadata (schema v2).

    ``arrays`` holds exactly what :meth:`repro.ml.mlp.MLPClassifier.to_state`
    emits (per-layer ``W<i>``/``b<i>`` plus ``mean``/``std``); ``params``
    the JSON-able hyper-parameters and layer count.
    """

    params: dict[str, Any]
    n_features: int
    arrays: dict[str, np.ndarray]
    meta: dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0

    kind: str = "mlp"

    @property
    def n_estimators(self) -> int:
        return 1  # one network; keeps registry summaries uniform

    @classmethod
    def from_model(
        cls, model: MLPClassifier, meta: dict[str, Any] | None = None
    ) -> "MLPArtifact":
        """Package a fitted MLP."""
        arrays, params = model.to_state()
        return cls(
            params=params,
            n_features=int(params["n_features"]),
            arrays=arrays,
            meta=dict(meta or {}),
            created_at=time.time(),
        )

    def to_model(self) -> MLPClassifier:
        """Rebuild the trained MLP; ``predict_proba`` is bit-identical
        to the model this artifact was packaged from."""
        try:
            return MLPClassifier.from_state(self.arrays, self.params)
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactSchemaError(f"bad mlp artifact: {error}") from error

    def save(self, stem: str | Path) -> dict[str, Any]:
        """Write ``<stem>.npz`` + ``<stem>.json``; returns the manifest."""
        return _write_bundle(
            stem,
            self.arrays,
            {
                "kind": self.kind,
                "n_estimators": self.n_estimators,
                "params": self.params,
                "n_features": self.n_features,
            },
            self.meta,
            self.created_at,
        )


def artifact_from_model(model, meta: dict[str, Any] | None = None):
    """Package any supported model (or fitted backend) as an artifact."""
    from ..ml.backends import ClassifierBackend

    if isinstance(model, ClassifierBackend):
        model = model.model_
    if isinstance(model, MLPClassifier):
        return MLPArtifact.from_model(model, meta=meta)
    return ModelArtifact.from_model(model, meta=meta)


def read_manifest(json_path: str | Path) -> dict[str, Any]:
    """Read and schema-check an artifact manifest (no payload I/O)."""
    json_path = Path(json_path)
    try:
        with open(json_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactError(f"cannot read manifest {json_path}: {error}") from error
    version = manifest.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ArtifactSchemaError(
            f"unsupported artifact schema version {version!r} "
            f"(this build reads versions {SUPPORTED_SCHEMA_VERSIONS})"
        )
    if version < 2 and manifest.get("kind") == "mlp":
        raise ArtifactSchemaError(
            "mlp artifacts require schema version >= 2"
        )
    return manifest


def _verified_payload_path(
    json_path: Path, manifest: dict[str, Any]
) -> Path:
    """The artifact's npz path, existence- and checksum-verified."""
    npz_path = json_path.parent / Path(manifest["arrays_file"]).name
    if not npz_path.exists():
        raise ArtifactError(f"artifact payload missing: {npz_path}")
    digest = _sha256(npz_path)
    if digest != manifest.get("arrays_sha256"):
        raise ArtifactIntegrityError(
            f"checksum mismatch for {npz_path.name}: payload is corrupted "
            f"or does not belong to this manifest"
        )
    return npz_path


def load_artifact(json_path: str | Path):
    """Load an artifact from its manifest path, verifying integrity.

    Returns a :class:`ModelArtifact` for the tree-ensemble kinds or an
    :class:`MLPArtifact` for ``mlp`` manifests (schema v2).
    """
    json_path = Path(json_path)
    manifest = read_manifest(json_path)
    npz_path = _verified_payload_path(json_path, manifest)
    if manifest.get("kind") == "mlp":
        try:
            with np.load(npz_path, allow_pickle=False) as arrays:
                payload = {key: arrays[key] for key in arrays.files}
        except (OSError, ValueError) as error:
            raise ArtifactError(
                f"cannot read payload {npz_path}: {error}"
            ) from error
        return MLPArtifact(
            params=manifest["params"],
            n_features=int(manifest["n_features"]),
            arrays=payload,
            meta=manifest.get("meta", {}),
            created_at=float(manifest.get("created_at", 0.0)),
        )
    try:
        with np.load(npz_path, allow_pickle=False) as arrays:
            payload = {key: arrays[key] for key in (*_NODE_KEYS, "offsets", "priors")}
    except (OSError, KeyError, ValueError) as error:
        raise ArtifactError(f"cannot read payload {npz_path}: {error}") from error
    return ModelArtifact(
        kind=manifest["kind"],
        estimator_kind=manifest["estimator_kind"],
        voting=manifest["voting"],
        estimator_params=manifest["estimator_params"],
        n_features=int(manifest["n_features"]),
        meta=manifest.get("meta", {}),
        created_at=float(manifest.get("created_at", 0.0)),
        offsets=payload["offsets"],
        priors=payload["priors"],
        feature=payload["feature"],
        threshold=payload["threshold"],
        left=payload["left"],
        right=payload["right"],
        pos=payload["pos"],
        neg=payload["neg"],
    )


def save_model(
    model,
    stem: str | Path,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One-call convenience: package ``model`` and write the bundle."""
    return artifact_from_model(model, meta=meta).save(stem)


def load_model(json_path: str | Path):
    """One-call convenience: load a bundle and rebuild the model."""
    return load_artifact(json_path).to_model()


def training_design_names(views: Sequence) -> list[str]:
    """Design names of the training views, for artifact metadata."""
    return [view.design_name for view in views]
