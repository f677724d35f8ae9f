"""Versioned serialization of fitted classifier backends to ``.npz`` + JSON bundles.

An artifact is two sibling files sharing a stem (see ``ARTIFACTS.md``):

* ``<stem>.npz``  -- the arrays of the backend's
  :meth:`~repro.ml.backends.ClassifierBackend.to_state`, verbatim;
* ``<stem>.json`` -- the manifest: schema version, the backend name
  (``kind``) and ``to_state``'s JSON-able ``params``, attack metadata
  (feature set, split layer, neighborhood, training designs) and the
  SHA-256 checksum of the ``.npz`` payload, verified on load.

This is the same state the feature cache stores for a fitted model, so
one format serves both stores and every registered backend can be saved.

Schema history: version 1 covered the tree kinds, version 2 added
``mlp``, and version 3 records every backend as ``kind`` + ``params``.
:func:`read_manifest` translates v1/v2 manifests of the ``bagging``,
``randomforest`` and (v2 only) ``mlp`` kinds -- whose payloads already
hold their backend's state arrays -- so they load and score
bit-identically; single-tree ``reptree``/``randomtree`` bundles, which
no backend writes, are rejected.

Round-tripping is exact: a loaded backend's ``predict_proba`` is
bit-identical to the one it was saved from, because ``from_state``
restores everything inference reads verbatim.  Artifacts capture
*inference* state only; the RNG state of the original model is not
preserved, so refitting a loaded model starts from a fresh seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..ml.backends import ClassifierBackend, get_backend

ARTIFACT_SCHEMA_VERSION = 3

#: Manifest versions this build can read (v1/v2 are translated on read).
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)


class ArtifactError(ValueError):
    """Base class for artifact load/save failures."""


class ArtifactIntegrityError(ArtifactError):
    """The ``.npz`` payload does not match the manifest checksum."""


class ArtifactSchemaError(ArtifactError):
    """The manifest's schema version or kind is not supported."""


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class ModelArtifact:
    """A fitted backend's state plus its manifest metadata.

    ``kind`` is the backend's registry name; ``arrays``/``params`` are
    exactly what its ``to_state`` emits, and ``to_backend`` hands them
    back to its ``from_state``.
    """

    kind: str
    params: dict[str, Any]
    arrays: dict[str, np.ndarray]
    n_features: int
    n_estimators: int
    meta: dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0

    @classmethod
    def from_backend(
        cls, backend: ClassifierBackend, meta: dict[str, Any] | None = None
    ) -> "ModelArtifact":
        """Package a fitted backend."""
        try:
            arrays, params = backend.to_state()
        except (NotImplementedError, RuntimeError) as error:
            raise ArtifactError(
                f"cannot package backend {backend.name!r}: {error}"
            ) from error
        return cls(
            kind=backend.name,
            params=params,
            arrays=arrays,
            n_features=int(params["n_features"]),
            n_estimators=len(getattr(backend.model_, "estimators_", ())) or 1,
            meta=dict(meta or {}),
            created_at=time.time(),
        )

    def to_backend(self) -> ClassifierBackend:
        """Rebuild the fitted backend; ``predict_proba`` is bit-identical
        to the backend this artifact was packaged from."""
        try:
            return get_backend(self.kind).from_state(self.arrays, self.params)
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactSchemaError(
                f"bad {self.kind} artifact: {error}"
            ) from error

    def save(self, stem: str | Path) -> dict[str, Any]:
        """Write ``<stem>.npz`` + ``<stem>.json``; returns the manifest.

        The manifest is written last, to a temp file renamed into place,
        so a reader sees either no manifest or a complete one.
        """
        stem = Path(stem)
        stem.parent.mkdir(parents=True, exist_ok=True)
        npz_path = stem.parent / f"{stem.name}.npz"
        json_path = stem.parent / f"{stem.name}.json"
        np.savez_compressed(npz_path, **self.arrays)
        manifest = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "kind": self.kind,
            "params": self.params,
            "n_features": self.n_features,
            "n_estimators": self.n_estimators,
            "arrays_file": npz_path.name,
            "arrays_sha256": _sha256(npz_path),
            "created_at": self.created_at or time.time(),
            "meta": self.meta,
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


def _upgrade_manifest(manifest: dict[str, Any]) -> dict[str, Any]:
    """A v1/v2 manifest with its backend ``params`` filled in.

    Their tree payloads already hold the stacked arrays the tree
    backends' ``to_state`` writes, and v2 ``mlp`` payloads and params
    are ``MLPClassifier.to_state``'s, so only tree params need deriving
    from the old top-level fields.
    """
    kind = manifest.get("kind")
    version = manifest["schema_version"]
    if kind == "mlp" and version >= 2:
        return manifest
    if kind == "bagging":
        params = {
            "n_estimators": manifest["n_estimators"],
            "voting": manifest["voting"],
            "base": manifest["estimator_kind"],
        }
    elif kind == "randomforest":
        estimator = manifest["estimator_params"]
        params = {
            "n_estimators": manifest["n_estimators"],
            "max_depth": estimator["max_depth"],
            "min_samples_leaf": estimator["min_samples_leaf"],
        }
    else:
        raise ArtifactSchemaError(
            f"schema version {version} {kind!r} artifacts are not supported"
        )
    return {**manifest, "params": {**params, "n_features": manifest["n_features"]}}


def read_manifest(json_path: str | Path) -> dict[str, Any]:
    """Read and schema-check an artifact manifest (no payload I/O).

    v1/v2 manifests come back with their v3 ``params``.
    """
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
    if version < ARTIFACT_SCHEMA_VERSION:
        try:
            manifest = _upgrade_manifest(manifest)
        except KeyError as error:
            raise ArtifactSchemaError(
                f"manifest {json_path} lacks field {error}"
            ) from error
    return manifest


def load_artifact(json_path: str | Path) -> ModelArtifact:
    """Load an artifact from its manifest path, verifying integrity."""
    json_path = Path(json_path)
    manifest = read_manifest(json_path)
    npz_path = json_path.parent / Path(manifest["arrays_file"]).name
    if not npz_path.exists():
        raise ArtifactError(f"artifact payload missing: {npz_path}")
    if _sha256(npz_path) != manifest.get("arrays_sha256"):
        raise ArtifactIntegrityError(
            f"checksum mismatch for {npz_path.name}: payload is corrupted "
            f"or does not belong to this manifest"
        )
    try:
        with np.load(npz_path, allow_pickle=False) as arrays:
            payload = {key: arrays[key] for key in arrays.files}
    except (OSError, ValueError) as error:
        raise ArtifactError(f"cannot read payload {npz_path}: {error}") from error
    return ModelArtifact(
        kind=manifest["kind"],
        params=manifest["params"],
        arrays=payload,
        n_features=int(manifest["n_features"]),
        n_estimators=int(manifest["n_estimators"]),
        meta=manifest.get("meta", {}),
        created_at=float(manifest.get("created_at", 0.0)),
    )


def save_model(
    backend: ClassifierBackend,
    stem: str | Path,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One-call convenience: package a fitted backend and write the bundle."""
    return ModelArtifact.from_backend(backend, meta=meta).save(stem)


def load_model(json_path: str | Path) -> ClassifierBackend:
    """One-call convenience: load a bundle and rebuild the fitted backend."""
    return load_artifact(json_path).to_backend()
