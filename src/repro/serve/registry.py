"""Directory-backed model registry: save / load / list / latest.

A registry is a flat directory of artifact bundles (``<model_id>.npz`` +
``<model_id>.json``, see :mod:`repro.serve.artifacts`).  Model ids are
``<name>-vNNNN``; saving under an existing name allocates the next
version, and an id, once written, is never rewritten.  Loads go through
the artifact layer and therefore verify the payload checksum and schema
version.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .artifacts import ArtifactError, ModelArtifact, load_artifact, read_manifest

_NAME_RE = re.compile(r"[^a-zA-Z0-9_.]+")
_ID_RE = re.compile(r"^(?P<name>.+)-v(?P<version>\d+)$")


class ModelNotFoundError(KeyError):
    """The requested model id (or name) is not in the registry."""

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes the message; report it verbatim.
        return self.args[0] if self.args else ""


def _sanitize_name(name: str) -> str:
    """Restrict names to filesystem-safe characters."""
    cleaned = _NAME_RE.sub("-", name).strip("-").lower()
    if not cleaned:
        raise ValueError(f"unusable model name {name!r}")
    return cleaned


@dataclass(frozen=True)
class RegistryEntry:
    """One registered model: identity, manifest summary, file locations."""

    model_id: str
    name: str
    version: int
    kind: str
    n_estimators: int
    n_features: int
    created_at: float
    manifest_path: Path
    meta: dict[str, Any]

    def describe(self) -> dict[str, Any]:
        """JSON-able summary (what ``GET /models`` returns per model)."""
        return {
            "model_id": self.model_id,
            "name": self.name,
            "version": self.version,
            "kind": self.kind,
            "n_estimators": self.n_estimators,
            "n_features": self.n_features,
            "created_at": self.created_at,
            "config": self.meta.get("config", {}).get("name"),
            "split_layer": self.meta.get("split_layer"),
            "training_designs": self.meta.get("training_designs"),
        }


class ModelRegistry:
    """A directory of versioned model artifacts.

    The directory is the source of truth -- there is no index file, so
    registries can be rsynced/copied freely and scanning stays correct.
    """

    def __init__(self, root: str | Path, create: bool = True) -> None:
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"registry directory missing: {self.root}")

    # -- scanning -------------------------------------------------------

    def _entry(self, manifest_path: Path) -> RegistryEntry | None:
        """Build an entry from one manifest file; ``None`` if unreadable."""
        match = _ID_RE.match(manifest_path.stem)
        if match is None:
            return None
        try:
            manifest = read_manifest(manifest_path)
        except ArtifactError:
            return None
        return RegistryEntry(
            model_id=manifest_path.stem,
            name=match.group("name"),
            version=int(match.group("version")),
            kind=manifest.get("kind", "?"),
            n_estimators=int(manifest.get("n_estimators", 0)),
            n_features=int(manifest.get("n_features", 0)),
            created_at=float(manifest.get("created_at", 0.0)),
            manifest_path=manifest_path,
            meta=manifest.get("meta", {}),
        )

    def list(self, name: str | None = None) -> list[RegistryEntry]:
        """All registered models, sorted by (name, version)."""
        entries = []
        for manifest_path in sorted(self.root.glob("*.json")):
            entry = self._entry(manifest_path)
            if entry is None:
                continue
            if name is not None and entry.name != _sanitize_name(name):
                continue
            entries.append(entry)
        entries.sort(key=lambda e: (e.name, e.version))
        return entries

    def latest(self, name: str | None = None) -> RegistryEntry | None:
        """The newest version under ``name`` (or newest overall)."""
        entries = self.list(name)
        if not entries:
            return None
        if name is not None:
            return max(entries, key=lambda e: e.version)
        return max(entries, key=lambda e: (e.created_at, e.model_id))

    # -- save / load ----------------------------------------------------

    def save(
        self,
        artifact: ModelArtifact,
        name: str | None = None,
    ) -> RegistryEntry:
        """Store an artifact under the next free version of ``name``.

        ``name`` defaults to the attack configuration recorded in the
        artifact metadata, falling back to the model kind.

        Model ids are write-once: the id is claimed by creating its
        manifest exclusively (an empty file, which scans skip), so
        concurrent saves under one name get distinct versions and an
        existing id is never overwritten.  The artifact then publishes
        its manifest over the claim atomically.
        """
        if name is None:
            name = artifact.meta.get("config", {}).get("name") or artifact.kind
        name = _sanitize_name(name)
        current = self.latest(name)
        version = 1 if current is None else current.version + 1
        while True:
            model_id = f"{name}-v{version:04d}"
            claim = self.root / f"{model_id}.json"
            try:
                os.close(os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                version += 1
        try:
            artifact.save(self.root / model_id)
        except BaseException:
            claim.unlink(missing_ok=True)
            raise
        entry = self._entry(claim)
        assert entry is not None
        return entry

    def resolve(self, model_id: str | None = None) -> RegistryEntry:
        """The entry for ``model_id`` (exact id, or a name whose newest
        version is taken); ``None`` resolves to the newest model."""
        if model_id is None:
            entry = self.latest()
            if entry is None:
                raise ModelNotFoundError("registry is empty")
            return entry
        manifest_path = self.root / f"{model_id}.json"
        if manifest_path.exists():
            entry = self._entry(manifest_path)
            if entry is not None:
                return entry
        by_name = self.latest(model_id) if _ID_RE.match(model_id) is None else None
        if by_name is not None:
            return by_name
        raise ModelNotFoundError(f"model {model_id!r} not found in {self.root}")

    def load(
        self, model_id: str | None = None
    ) -> tuple[RegistryEntry, ModelArtifact]:
        """Resolve and load (with integrity verification) an artifact."""
        entry = self.resolve(model_id)
        return entry, load_artifact(entry.manifest_path)
