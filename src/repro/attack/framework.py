"""Training and evaluation driver for the machine-learning attack.

Implements the paper's Fig. 1 pipeline around a trained classifier:

* :func:`train_attack` -- build the balanced training set from the
  training views (with the Imp neighborhood and/or the "Y" limit when the
  configuration asks for them) and fit the Bagging classifier, or
  restore the identical fitted model from the feature cache;
* :func:`score_candidates` -- the one candidate -> featurize -> predict
  stream: enumerate candidate pairs of a test view (all legal pairs for
  ``ML``, neighborhood pairs for ``Imp``) and classify them in
  bounded-memory chunks;
* :func:`evaluate_attack` -- record the probability of every candidate
  pair (Section III-F: thresholds are applied *afterwards*);
* :func:`run_loo` -- leave-one-out cross validation over a suite.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from typing import Any, Iterator, Mapping

import numpy as np

from ..ml.backends import ClassifierBackend, create_backend, get_backend
from ..obs.logging import get_logger
from ..obs.metrics import counter
from ..obs.trace import span
from ..runtime import (
    MAX_CHUNKED_BYTES,
    FeatureCache,
    code_fingerprint,
    get_default_cache,
    hash_key,
    parallel_map,
    spawn_seeds,
    view_content_hash,
)
from ..splitmfg.featurize_engine import PairFeaturizer
from ..splitmfg.sampling import (
    NeighborhoodIndex,
    TrainingSet,
    axis_aligned,
    build_training_set,
    iter_all_pairs,
    max_chunk_rows,
    neighborhood_fraction,
    neighborhood_radius,
)
from ..splitmfg.split import SplitView
from .config import AttackConfig
from .result import AttackResult

DEFAULT_CHUNK_SIZE = 400_000

logger = get_logger("attack.framework")


def make_backend(config: AttackConfig) -> "ClassifierBackend":
    """The unfitted classifier backend named by ``config.backend``.

    Resolution goes through the :mod:`repro.ml.backends` registry; for
    the default ``bagging`` backend, the config's historical ensemble
    knobs (``n_estimators``/``base_classifier``/``voting``) are
    forwarded unless ``backend_params`` overrides them.
    """
    params = dict(config.backend_params)
    if config.backend == "bagging":
        params.setdefault("n_estimators", config.n_estimators)
        params.setdefault("voting", config.voting)
        params.setdefault("base", config.base_classifier)
    return create_backend(config.backend, **params)


def make_classifier(config: AttackConfig, seed: int):
    """The configured classifier, constructed via the backend registry.

    Every backend receives ``seed`` through the same path (deterministic
    backends ignore it); for the default configs this builds exactly the
    Bagging ensembles the paper uses, bit-identical to the pre-registry
    construction.
    """
    return make_backend(config).build(seed)


def _limit_axis(config: AttackConfig, views: list[SplitView]) -> str | None:
    """Validate and resolve the "Y" limit for these views."""
    if not config.limit_top_axis:
        return None
    axes = {view.aligned_axis for view in views}
    if axes == {None} or None in axes:
        raise ValueError(
            f"configuration {config.name} limits the top-layer axis but the "
            f"split is not at the highest via layer"
        )
    if len(axes) != 1:
        raise ValueError("views disagree on the aligned axis")
    return axes.pop()


@dataclass
class TrainedAttack:
    """A fitted classifier plus the preprocessing decisions it was fit with.

    ``model`` is whatever the configured backend built -- a tree
    ensemble, an MLP, or any duck-typed object with ``predict_proba``.
    """

    config: AttackConfig
    model: Any
    neighborhood: float | None
    limit_axis: str | None
    train_time: float
    n_training_samples: int


def _training_set_key(
    config: AttackConfig,
    training_views: list[SplitView],
    fraction: float | None,
    axis: str | None,
    seed: int,
    allowed: list[np.ndarray] | None,
) -> str:
    """Cache key for the featurized, balanced training matrices."""
    return hash_key(
        "training-set",
        code_fingerprint(),
        [view_content_hash(view) for view in training_views],
        list(config.features),
        fraction,
        axis,
        seed,
        None if allowed is None else [np.asarray(m, dtype=bool) for m in allowed],
    )


def _model_key(config: AttackConfig, training_set_key: str) -> str:
    """Cache key for the fitted model: its training set plus every
    configuration field (backend, its parameters, ensemble knobs)."""
    return hash_key(
        "trained-model",
        training_set_key,
        [(f.name, getattr(config, f.name)) for f in fields(config)],
    )


def _store_model(
    cache: FeatureCache,
    key: str,
    backend: ClassifierBackend,
    train_time: float,
    n_samples: int,
) -> None:
    """Store a fitted backend's exact inference state (if it has one)."""
    try:
        arrays, params = backend.to_state()
    except NotImplementedError:
        return
    entry = {f"state.{name}": array for name, array in arrays.items()}
    entry["params"] = np.array(json.dumps(params, sort_keys=True))
    entry["train_time"] = np.array(train_time, dtype=np.float64)
    entry["n_training_samples"] = np.array(n_samples, dtype=np.int64)
    cache.put(key, entry)


def _restore_model(
    config: AttackConfig, stored: dict[str, np.ndarray]
) -> tuple[Any, float, int]:
    """``(model, train_time, n_training_samples)`` of a stored model."""
    arrays = {
        name.removeprefix("state."): array
        for name, array in stored.items()
        if name.startswith("state.")
    }
    params = json.loads(str(stored["params"]))
    backend = get_backend(config.backend).from_state(arrays, params)
    return (
        backend.model_,
        float(stored["train_time"]),
        int(stored["n_training_samples"]),
    )


def train_attack(
    config: AttackConfig,
    training_views: list[SplitView],
    seed: int = 0,
    allowed: list[np.ndarray] | None = None,
    cache: FeatureCache | None = None,
) -> TrainedAttack:
    """Fit the attack classifier on the training views.

    The sampling stream and the model seed are derived as *independent*
    children of ``seed`` (``SeedSequence.spawn``): the fitted model is
    identical whether the training matrices were rebuilt or restored
    from ``cache`` (the process default cache when ``None``).

    With a cache, the fitted model itself is an entry too: a repeat of
    the same (code, configuration, training views, seed, ``allowed``)
    restores it through its backend's ``from_state`` -- bit-identical
    predictions -- and reports the ``train_time`` the original fit
    measured, so runtime columns keep meaning "time to train".
    """
    if not training_views:
        raise ValueError("need at least one training view")
    start = time.perf_counter()
    if cache is None:
        cache = get_default_cache()
    with span("train", config=config.name, n_views=len(training_views)) as outer:
        sample_sequence, model_sequence = np.random.SeedSequence(seed).spawn(2)
        axis = _limit_axis(config, training_views)
        fraction = (
            neighborhood_fraction(training_views, config.neighborhood_percentile)
            if config.scalable
            else None
        )
        key: str | None = None
        model_key: str | None = None
        if cache is not None:
            key = _training_set_key(
                config, training_views, fraction, axis, seed, allowed
            )
            model_key = _model_key(config, key)
            stored = cache.get(model_key)
            if stored is not None:
                model, train_time, n_samples = _restore_model(config, stored)
                outer.set(model="cache", n_samples=n_samples)
                return TrainedAttack(
                    config=config,
                    model=model,
                    neighborhood=fraction,
                    limit_axis=axis,
                    train_time=train_time,
                    n_training_samples=n_samples,
                )
        training_set: TrainingSet | None = None
        with span("build_training_set") as build:
            if key is not None:
                stored = cache.get(key)
                if stored is not None:
                    training_set = TrainingSet(
                        X=stored["X"], y=stored["y"], features=config.features
                    )
            source = "cache"
            if training_set is None:
                source = "featurized"
                training_set = build_training_set(
                    training_views,
                    config.features,
                    np.random.default_rng(sample_sequence),
                    neighborhood=fraction,
                    y_aligned_only=axis == "y",
                    x_aligned_only=axis == "x",
                    allowed=allowed,
                )
                counter("pairs_featurized").inc(training_set.n_samples)
                if key is not None:
                    cache.put(key, {"X": training_set.X, "y": training_set.y})
            build.set(source=source, n_samples=training_set.n_samples)
        with span(
            "fit", backend=config.backend, n_estimators=config.n_estimators
        ):
            model_seed = int(
                np.random.default_rng(model_sequence).integers(2**63)
            )
            backend = make_backend(config)
            model = backend.model_ = backend.build(model_seed)
            model.fit(training_set.X, training_set.y)
        train_time = time.perf_counter() - start
        if model_key is not None:
            _store_model(
                cache, model_key, backend, train_time, training_set.n_samples
            )
        outer.set(model="fitted", n_samples=training_set.n_samples)
        logger.debug(
            "trained %s",
            config.name,
            extra={
                "config": config.name,
                "n_samples": training_set.n_samples,
                "training_set": source,
            },
        )
    return TrainedAttack(
        config=config,
        model=model,
        neighborhood=fraction,
        limit_axis=axis,
        train_time=train_time,
        n_training_samples=training_set.n_samples,
    )


def _candidate_chunks(
    trained: TrainedAttack,
    view: SplitView | Mapping[str, np.ndarray],
    chunk_size: int,
    rows: tuple[int, int | None],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Featurized candidate chunks ``(i, j, X)`` per the testing rule.

    ``ML`` configurations walk every pair of triangle ``rows``
    (:func:`~repro.splitmfg.sampling.iter_all_pairs`) and fold the
    legality rule into featurization; ``Imp`` configurations cut the
    KD-tree's legal neighborhood pairs into ``chunk_size`` slices.  Pairs
    violating the "Y" limit (when active) are dropped before featurizing.
    ``X`` is a view into one reused buffer.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    featurizer = PairFeaturizer(view, trained.config.features)
    buffer = featurizer.out_buffer(max_chunk_rows(featurizer.n, chunk_size))
    axis = trained.limit_axis
    if trained.neighborhood is None:
        for i, j in iter_all_pairs(featurizer.n, chunk_size, *rows):
            if axis is not None:
                keep = axis_aligned(featurizer.columns, i, j, axis)
                i, j = i[keep], j[keep]
            yield featurizer.legal_rows_into(i, j, buffer)
        return
    radius = neighborhood_radius(view, trained.neighborhood)
    pair_i, pair_j = NeighborhoodIndex(view, radius).candidate_pairs()
    for start in range(0, len(pair_i), chunk_size):
        i = pair_i[start : start + chunk_size]
        j = pair_j[start : start + chunk_size]
        if axis is not None:
            keep = axis_aligned(featurizer.columns, i, j, axis)
            i, j = i[keep], j[keep]
        yield i, j, featurizer.rows_into(i, j, buffer)


def score_candidates(
    trained: TrainedAttack,
    view: SplitView | Mapping[str, np.ndarray],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    rows: tuple[int, int | None] = (0, None),
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Stream ``(i, j, X, p)`` for every non-empty candidate chunk.

    The paper's Fig. 1 pipeline in one loop: candidate pairs ``(i, j)``,
    their feature rows ``X`` (a view into a reused buffer -- consume it
    before the next chunk) and the classifier probabilities ``p``.
    ``view`` may also be a mapping of the v-pin columns (how pool
    workers read shared memory) for all-pairs configurations, whose
    enumeration ``rows`` restricts to one shard of the pair triangle.
    """
    for i, j, X in _candidate_chunks(trained, view, chunk_size, rows):
        if len(i):
            yield i, j, X, trained.model.predict_proba(X)


def _candidate_key(trained: TrainedAttack, view: SplitView) -> str:
    """Cache key for a view's featurized candidate pairs.

    The key covers everything the candidate matrix depends on: the test
    view's content, the feature set, and the testing rule (neighborhood
    fraction and "Y" limit).  It does *not* depend on the classifier, so
    every configuration sharing a testing rule reuses the entry.
    """
    return hash_key(
        "candidates",
        code_fingerprint(),
        view_content_hash(view),
        list(trained.config.features),
        trained.neighborhood,
        trained.limit_axis,
    )


def _replay(
    trained: TrainedAttack, cache: FeatureCache, key: str, n_chunks: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]] | None:
    """Score a cached candidate family; ``None`` if a chunk is missing."""
    out_i, out_j, out_p = [], [], []
    for index in range(n_chunks):
        entry = cache.get_chunk(key, index)
        if entry is None:
            return None
        out_i.append(entry["i"])
        out_j.append(entry["j"])
        out_p.append(trained.model.predict_proba(entry["X"]))
    return out_i, out_j, out_p


def evaluate_attack(
    trained: TrainedAttack,
    view: SplitView,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache: FeatureCache | None = None,
) -> AttackResult:
    """Classify the test view's candidate pairs and record probabilities.

    Pairs violating the "Y" limit (when active) are classified as
    disconnected without testing -- they simply never enter the result,
    which is also what halves the runtime in Table IV.

    When a feature cache is available (explicitly or via the process
    default), the featurized candidate matrix is restored from disk on a
    hit and stored after a miss; probabilities are identical either way
    because every tree scores rows independently.  Candidate matrices
    are stored *chunk-addressed* (one ``.npz`` per scored chunk plus an
    index entry written last), so neither the store nor the replay path
    ever materializes the full matrix: peak RSS is one chunk's features
    plus the accumulated ``(i, j, prob)`` result arrays, whatever the
    design size.
    """
    start = time.perf_counter()
    if cache is None:
        cache = get_default_cache()
    with span(
        "evaluate", design=view.design_name, config=trained.config.name
    ) as outer:
        key = _candidate_key(trained, view) if cache is not None else None
        stored = cache.get(key) if key is not None else None
        parts = None
        if stored is not None and "n_chunks" in stored:
            with span("score", candidates="cache"):
                parts = _replay(trained, cache, key, int(stored["n_chunks"]))
        if parts is None:
            out_i, out_j, out_p = [], [], []
            caching = key is not None
            stored_bytes = 0
            with span("score", candidates="featurized"):
                for i, j, X, p in score_candidates(trained, view, chunk_size):
                    out_i.append(i)
                    out_j.append(j)
                    out_p.append(p)
                    if caching:
                        # Over the budget nothing more is stored, and
                        # without the index the family is discarded.
                        stored_bytes += i.nbytes + j.nbytes + X.nbytes
                        caching = stored_bytes <= MAX_CHUNKED_BYTES and (
                            cache.put_chunk(
                                key, len(out_i) - 1, {"i": i, "j": j, "X": X}
                            )
                        )
            counter("pairs_featurized").inc(sum(len(i) for i in out_i))
            if caching:
                cache.put(key, {"n_chunks": np.array(len(out_i))})
            parts = out_i, out_j, out_p
        out_i, out_j, out_p = parts
        n_evaluated = sum(len(i) for i in out_i)
        if out_i:
            pair_i = np.concatenate(out_i)
            pair_j = np.concatenate(out_j)
            prob = np.concatenate(out_p)
        else:
            pair_i = np.zeros(0, dtype=int)
            pair_j = np.zeros(0, dtype=int)
            prob = np.zeros(0)
        counter("candidates_scored").inc(n_evaluated)
        outer.set(n_pairs=n_evaluated)
        logger.debug(
            "evaluated %s",
            view.design_name,
            extra={"design": view.design_name, "n_pairs": n_evaluated},
        )
    return AttackResult(
        view=view,
        pair_i=pair_i,
        pair_j=pair_j,
        prob=prob,
        config_name=trained.config.name,
        train_time=trained.train_time,
        test_time=time.perf_counter() - start,
        n_pairs_evaluated=n_evaluated,
    )


def loo_folds(
    views: list[SplitView],
) -> Iterator[tuple[SplitView, list[SplitView]]]:
    """Yield ``(test_view, training_views)`` for leave-one-out CV."""
    for k, test_view in enumerate(views):
        yield test_view, views[:k] + views[k + 1 :]


def _run_loo_fold(
    task: tuple[AttackConfig, list[SplitView], int, int, int, FeatureCache | None],
) -> AttackResult:
    """One LOOCV fold, self-contained so a pool worker can run it."""
    config, views, fold, fold_seed, chunk_size, cache = task
    test_view = views[fold]
    training_views = views[:fold] + views[fold + 1 :]
    with span(
        "fold", fold=fold, design=test_view.design_name, config=config.name
    ):
        trained = train_attack(
            config, training_views, seed=fold_seed, cache=cache
        )
        result = evaluate_attack(trained, test_view, chunk_size, cache=cache)
    counter("folds_completed").inc()
    return result


def run_loo(
    config: AttackConfig,
    views: list[SplitView],
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jobs: int = 1,
    cache: FeatureCache | None = None,
) -> list[AttackResult]:
    """Leave-one-out evaluation of one configuration over a suite.

    Folds are independent: ``jobs > 1`` runs them on a process pool.
    Fold seeds are spawned from ``seed`` up front, so the results are
    bit-identical for every ``jobs`` value (timings aside).
    """
    if len(views) < 2:
        raise ValueError("leave-one-out needs at least two views")
    if cache is None:
        cache = get_default_cache()
    seeds = spawn_seeds(seed, len(views))
    tasks = [
        (config, views, fold, seeds[fold], chunk_size, cache)
        for fold in range(len(views))
    ]
    with span("loo", config=config.name, n_folds=len(views), jobs=jobs):
        return parallel_map(_run_loo_fold, tasks, jobs=jobs)
