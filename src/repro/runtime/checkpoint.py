"""Atomic per-experiment checkpoints: the recovery units of ``run_all``.

A checkpoint keeps the *bytes* of a finished experiment -- the rendered
report section -- and their ``report_sha256``.  The checkpoint store is
the one record of finished work: ``--resume`` and ``repro merge-runs``
read it, not run manifests, so an interrupted, killed or sharded run is
resumed/merged into a combined report byte-identical to an
uninterrupted one without re-running the finished work.

One checkpoint is one JSON file, written by the **parent** process the
moment an experiment's result lands (pool workers never write them, so
a SIGKILLed worker can at worst lose its own in-flight experiment).
Writes are atomic (temp file + ``os.replace``); loads verify the
recorded ``report_sha256`` against the stored report and the
``(name, scale, seed)`` coordinate against the requesting run, so a
torn, corrupt, or mismatched checkpoint degrades to "not checkpointed"
(counted in ``checkpoints_invalid``) instead of poisoning a resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any

from ..obs.logging import get_logger
from ..obs.metrics import counter

logger = get_logger("runtime.checkpoint")

#: Checkpoint document schema (bump on breaking layout changes).
CHECKPOINT_VERSION = 1


def run_key(scale: float, seed: int) -> str:
    """The directory key isolating one ``(scale, seed)`` run family."""
    return f"scale{float(scale):g}-seed{int(seed)}"


class CheckpointStore:
    """A directory of ``<experiment>.json`` checkpoint files."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def save(
        self,
        name: str,
        scale: float,
        seed: int,
        report: str,
        elapsed_seconds: float = 0.0,
    ) -> Path:
        """Atomically write (or overwrite) one experiment checkpoint."""
        document = {
            "version": CHECKPOINT_VERSION,
            "name": name,
            "scale": float(scale),
            "seed": int(seed),
            "report": report,
            "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
            "elapsed_seconds": float(elapsed_seconds),
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        path = self.path(name)
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle)
                handle.write("\n")
            os.replace(temp_name, path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        counter("checkpoints_written").inc()
        return path

    def load(
        self,
        name: str,
        scale: float | None = None,
        seed: int | None = None,
    ) -> dict[str, Any] | None:
        """The verified checkpoint for ``name``, or ``None``.

        Returns ``None`` (never raises) for a missing, torn, corrupt,
        hash-mismatched, or wrong-``(scale, seed)`` file -- a resume
        treats all of those identically: run the experiment again.
        """
        path = self.path(name)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            counter("checkpoints_invalid").inc()
            logger.warning("checkpoint %s is unreadable; ignoring it", path)
            return None
        if not isinstance(document, dict):
            counter("checkpoints_invalid").inc()
            return None
        report = document.get("report")
        recorded = document.get("report_sha256")
        if (
            not isinstance(report, str)
            or hashlib.sha256(report.encode()).hexdigest() != recorded
        ):
            counter("checkpoints_invalid").inc()
            logger.warning(
                "checkpoint %s fails its own hash; ignoring it", path
            )
            return None
        if document.get("name") != name:
            counter("checkpoints_invalid").inc()
            return None
        if scale is not None and document.get("scale") != float(scale):
            counter("checkpoints_invalid").inc()
            return None
        if seed is not None and document.get("seed") != int(seed):
            counter("checkpoints_invalid").inc()
            return None
        return document

    def load_all(
        self, scale: float | None = None, seed: int | None = None
    ) -> dict[str, dict[str, Any]]:
        """Every verified checkpoint in the store, keyed by experiment."""
        if not self.root.is_dir():
            return {}
        records: dict[str, dict[str, Any]] = {}
        for path in sorted(self.root.glob("*.json")):
            record = self.load(path.stem, scale=scale, seed=seed)
            if record is not None:
                records[path.stem] = record
        return records

    def clear(self) -> int:
        """Delete every checkpoint; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(self.root.glob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
