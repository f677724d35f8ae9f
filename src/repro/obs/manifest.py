"""Run manifests: one JSON document per invocation, next to its report.

A manifest answers "what exactly produced this result?" months later:
the command and its configuration, the root seed (all per-fold seeds
derive from it via ``SeedSequence.spawn``), the package versions, the
span trees timing every pipeline stage, the metrics snapshot, the
resource telemetry, and the feature-cache statistics.
``repro.experiments.run_all`` writes one to
``results/runs/<timestamp>-<id>.json`` by default.

Schema history:

* **v1** -- config/seeds/versions/host/spans/metrics (+ optional
  cache/experiments); spans carry ``wall_s``/``cpu_s`` only and the
  metrics snapshot has no ``gauges`` section.
* **v2** -- adds a top-level ``resources`` section (RSS / peak-RSS /
  CPU readings from :mod:`repro.obs.resources`), ``gauges`` inside the
  metrics snapshot, and ``start_s`` + ``peak_rss_bytes`` on spans.
* **v3** -- adds the fault-tolerant-runtime fields: ``status``
  (``"completed"`` for a clean finish, ``"interrupted"`` for a partial
  manifest written on SIGINT/SIGTERM -- its ``experiments`` section
  then lists only the experiments with verified checkpoints),
  ``shard`` (``{"index": i, "count": N}`` for a ``--shard i/N``
  partition, else ``null``), ``resumed`` (experiment names restored
  from verified checkpoints instead of re-run), and ``merged_from``
  (source run ids of a ``repro merge-runs`` combination).  Neither
  ``--resume`` nor ``merge-runs`` reads the recorded hashes: the
  checkpoint store is the one record of finished work.  :func:`load_manifest` reads all versions: older
  documents come back with the new sections defaulted
  (``status: "completed"``), so downstream tools never branch on
  version.

Manifests are observability output, never experiment output: the
report documents compared across ``--jobs`` values do not contain (or
depend on) anything written here.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

#: Manifest schema version (bump on breaking layout changes).
SCHEMA_VERSION = 3

#: Versions :func:`load_manifest` knows how to read.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Values the ``status`` field may take.
RUN_STATUSES = ("completed", "interrupted")

#: Default directory for run manifests, relative to the working dir.
DEFAULT_MANIFEST_DIR = Path("results") / "runs"


def new_run_id() -> str:
    """``<UTC timestamp>-<random id>``, also the manifest file stem."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{os.urandom(4).hex()}"


def package_versions() -> dict[str, str]:
    """Versions of the interpreter and the scientific stack in use."""
    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        if module is None:
            try:
                module = __import__(name)
            except ImportError:  # pragma: no cover - all are hard deps
                continue
        versions[name] = getattr(module, "__version__", "unknown")
    return versions


def build_manifest(
    command: str,
    config: dict[str, Any],
    seeds: dict[str, Any],
    spans: list[dict[str, Any]] | None = None,
    metrics: dict[str, Any] | None = None,
    cache: dict[str, Any] | None = None,
    experiments: dict[str, Any] | None = None,
    resources: dict[str, Any] | None = None,
    run_id: str | None = None,
    status: str = "completed",
    shard: dict[str, int] | None = None,
    resumed: list[str] | None = None,
    merged_from: list[str] | None = None,
) -> dict[str, Any]:
    """Assemble a manifest document (pure; nothing is written)."""
    if status not in RUN_STATUSES:
        raise ValueError(
            f"status must be one of {RUN_STATUSES}, got {status!r}"
        )
    manifest: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id or new_run_id(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "status": status,
        "shard": shard,
        "config": config,
        "seeds": seeds,
        "versions": package_versions(),
        "host": {
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "spans": spans or [],
        "metrics": metrics or {},
        "resources": resources or {},
    }
    if resumed:
        manifest["resumed"] = list(resumed)
    if merged_from:
        manifest["merged_from"] = list(merged_from)
    if cache is not None:
        manifest["cache"] = cache
    if experiments is not None:
        manifest["experiments"] = experiments
    return manifest


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read a manifest of any supported schema version.

    v1 documents are upgraded in memory: the ``resources`` section and
    the metrics ``gauges`` map come back empty (they were never
    recorded), so v2-era consumers index them without branching.  The
    recorded ``schema_version`` is preserved.  Raises ``ValueError``
    for documents from a future (or missing) schema.
    """
    with open(path) as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    version = manifest.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"{path}: unsupported manifest schema_version {version!r} "
            f"(supported: {SUPPORTED_SCHEMA_VERSIONS})"
        )
    manifest.setdefault("spans", [])
    manifest.setdefault("resources", {})
    manifest.setdefault("status", "completed")
    manifest.setdefault("shard", None)
    metrics = manifest.setdefault("metrics", {})
    if isinstance(metrics, dict):
        metrics.setdefault("counters", {})
        metrics.setdefault("histograms", {})
        metrics.setdefault("gauges", {})
    return manifest


def write_manifest(
    manifest: dict[str, Any], directory: str | Path = DEFAULT_MANIFEST_DIR
) -> Path:
    """Atomically write ``<directory>/<run_id>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{manifest['run_id']}.json"
    fd, temp_name = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            # One json.dumps call (no indent) runs the C encoder.
            handle.write(json.dumps(manifest, default=str) + "\n")
        os.replace(temp_name, path)
    except OSError:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path
