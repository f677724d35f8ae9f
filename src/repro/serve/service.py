"""The attack-inference service: challenge in, LoCs/top-K out.

:class:`AttackService` is the in-process core that the HTTP layer and
the CLI both call.  A request carries a *public* challenge document
(:mod:`repro.splitmfg.challenge` -- exactly what an untrusted foundry
could extract from the FEOL); the service rebuilds the split view,
recomputes the v-pin pair features, scores every candidate pair with a
registry model through the stacked-tree engine, and returns each v-pin's
list of candidates (LoC at a threshold, or its top-K partners).

Training-side helpers live here too: :func:`train_model` fits the
configured classifier on a set of views and packages it with the
metadata inference needs (feature set, neighborhood fraction, axis
limit, training design names).
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from ..attack.config import AttackConfig
from ..attack.framework import (
    DEFAULT_CHUNK_SIZE,
    TrainedAttack,
    evaluate_attack,
    make_backend,
    train_attack,
)
from ..attack.topk import evaluate_attack_topk
from ..splitmfg.challenge import challenge_from_dicts
from ..splitmfg.split import SplitView
from .artifacts import ArtifactError, ModelArtifact
from .registry import ModelRegistry, RegistryEntry

DEFAULT_THRESHOLD = 0.5

#: Most loaded models :class:`AttackService` keeps warm (LRU by model id).
MODEL_CACHE_SIZE = 4


def package_trained_attack(
    trained: TrainedAttack,
    training_views: Sequence[SplitView] = (),
    extra_meta: dict[str, Any] | None = None,
) -> ModelArtifact:
    """Package a :class:`TrainedAttack` with everything serving needs.

    The metadata records the attack configuration (feature set id and
    all knobs), the resolved neighborhood fraction and axis limit, and
    the training design names -- enough to rebuild an equivalent
    ``TrainedAttack`` in a fresh process.
    """
    meta: dict[str, Any] = {
        "config": asdict(trained.config),
        "neighborhood": trained.neighborhood,
        "limit_axis": trained.limit_axis,
        "train_time": trained.train_time,
        "n_training_samples": trained.n_training_samples,
        "training_designs": [view.design_name for view in training_views],
        "split_layers": sorted({view.split_layer for view in training_views}),
    }
    if len(meta["split_layers"]) == 1:
        meta["split_layer"] = meta["split_layers"][0]
    meta.update(extra_meta or {})
    backend = make_backend(trained.config)
    backend.model_ = trained.model
    return ModelArtifact.from_backend(backend, meta=meta)


def train_model(
    config: AttackConfig,
    views: Sequence[SplitView],
    seed: int = 0,
    extra_meta: dict[str, Any] | None = None,
) -> ModelArtifact:
    """Train on *all* given views and package the result.

    Unlike the leave-one-out experiment driver, serving trains once on
    every available design; the model is meant for *unseen* targets.
    """
    trained = train_attack(config, list(views), seed=seed)
    return package_trained_attack(trained, views, extra_meta=extra_meta)


def restore_trained_attack(artifact: ModelArtifact) -> TrainedAttack:
    """Rebuild a :class:`TrainedAttack` from an artifact's metadata."""
    config_fields = artifact.meta.get("config")
    if not config_fields:
        raise ArtifactError(
            "artifact has no attack configuration metadata; package models "
            "with repro.serve.service.package_trained_attack"
        )
    neighborhood = artifact.meta.get("neighborhood")
    return TrainedAttack(
        config=AttackConfig(**config_fields),
        model=artifact.to_backend().model_,
        neighborhood=None if neighborhood is None else float(neighborhood),
        limit_axis=artifact.meta.get("limit_axis"),
        train_time=float(artifact.meta.get("train_time", 0.0)),
        n_training_samples=int(artifact.meta.get("n_training_samples", 0)),
    )


@dataclass
class _LoadedModel:
    """A registry model resolved, verified, and ready to score."""

    entry: RegistryEntry
    trained: TrainedAttack


class AttackService:
    """Score public challenge documents with registry models.

    Thread-safe for concurrent HTTP handler threads, each of which
    scores its own request inline: the model LRU cache is guarded by a
    lock (lookups, recency updates, inserts and evictions are all
    serialized); scoring itself only reads shared arrays.  Artifact
    loads happen *outside* the lock so a cold model never stalls
    requests already holding a loaded one.  The cache is keyed by model
    id, which is safe because the registry never rewrites an id.
    """

    def __init__(self, registry: ModelRegistry) -> None:
        self.registry = registry
        self._cache: OrderedDict[str, _LoadedModel] = OrderedDict()
        self._cache_lock = threading.Lock()

    # -- model resolution ----------------------------------------------

    def _load(self, model_id: str | None) -> _LoadedModel:
        """Resolve + load a model through the locked LRU."""
        entry = self.registry.resolve(model_id)
        with self._cache_lock:
            cached = self._cache.get(entry.model_id)
            if cached is not None:
                self._cache.move_to_end(entry.model_id)
                return cached
        # Load outside the lock: artifact IO and deserialization are the
        # slow path and must not block requests hitting warm entries.
        _entry, artifact = self.registry.load(entry.model_id)
        loaded = _LoadedModel(entry=entry, trained=restore_trained_attack(artifact))
        with self._cache_lock:
            racing = self._cache.get(entry.model_id)
            if racing is not None:
                # Another thread loaded the same artifact first; keep one
                # copy so concurrent requests share arrays.
                self._cache.move_to_end(entry.model_id)
                return racing
            self._cache[entry.model_id] = loaded
            while len(self._cache) > MODEL_CACHE_SIZE:
                self._cache.popitem(last=False)
        return loaded

    def models(self) -> list[dict[str, Any]]:
        """JSON-able summaries of every registered model."""
        return [entry.describe() for entry in self.registry.list()]

    # -- scoring --------------------------------------------------------

    def predict(
        self,
        public: dict[str, Any],
        model_id: str | None = None,
        threshold: float | None = None,
        top_k: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> dict[str, Any]:
        """Score a public challenge document; returns the JSON response.

        ``top_k`` switches to streaming per-v-pin top-K evaluation (the
        bounded-memory path for low split layers); otherwise every pair
        with probability >= ``threshold`` enters its endpoints' LoCs.
        """
        if model_id is not None and not isinstance(model_id, str):
            raise TypeError(
                "model must be a string model id or name, got "
                f"{type(model_id).__name__}"
            )
        if threshold is not None:
            threshold = float(threshold)
            if not math.isfinite(threshold) or not 0.0 <= threshold <= 1.0:
                raise ValueError(
                    f"threshold must be a finite number in [0, 1], got {threshold}"
                )
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1")
        started = time.perf_counter()
        view = challenge_from_dicts(public)
        loaded = self._load(model_id)
        if top_k is not None:
            result = evaluate_attack_topk(
                loaded.trained, view, k=top_k, chunk_size=chunk_size
            )
        else:
            result = evaluate_attack(loaded.trained, view, chunk_size=chunk_size)
        if threshold is None:
            threshold = DEFAULT_THRESHOLD
        if top_k is None:
            keep = result.prob >= threshold
            pair_i = result.pair_i[keep]
            pair_j = result.pair_j[keep]
            prob = result.prob[keep]
        else:
            pair_i, pair_j, prob = result.pair_i, result.pair_j, result.prob
        return {
            "model_id": loaded.entry.model_id,
            "config": loaded.trained.config.name,
            "design": view.design_name,
            "split_layer": view.split_layer,
            "n_vpins": len(view),
            "n_pairs_evaluated": result.n_pairs_evaluated,
            "threshold": None if top_k is not None else threshold,
            "top_k": top_k,
            "locs": _locs_payload(len(view), pair_i, pair_j, prob, top_k),
            "mean_loc_size": (2.0 * len(prob) / len(view)) if len(view) else 0.0,
            "time_s": time.perf_counter() - started,
        }


def _locs_payload(
    n_vpins: int,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    prob: np.ndarray,
    top_k: int | None,
) -> list[dict[str, Any]]:
    """Per-v-pin candidate lists, highest probability first.

    Only v-pins with at least one surviving candidate are listed (LoCs
    at a sane threshold are sparse relative to ``n_vpins``).
    """
    partners: list[list[tuple[float, int]]] = [[] for _ in range(n_vpins)]
    for i, j, p in zip(pair_i, pair_j, prob):
        partners[int(i)].append((float(p), int(j)))
        partners[int(j)].append((float(p), int(i)))
    payload = []
    for vpin, candidates in enumerate(partners):
        if not candidates:
            continue
        candidates.sort(key=lambda item: (-item[0], item[1]))
        if top_k is not None:
            candidates = candidates[:top_k]
        payload.append(
            {
                "vpin": vpin,
                "candidates": [
                    {"partner": partner, "prob": p} for p, partner in candidates
                ],
            }
        )
    return payload
