"""Training and evaluation driver for the machine-learning attack.

Implements the paper's Fig. 1 pipeline around a trained classifier:

* :func:`train_attack` -- build the balanced training set from the
  training views (with the Imp neighborhood and/or the "Y" limit when the
  configuration asks for them) and fit the Bagging classifier, or
  restore the identical fitted model from the feature cache (fitted
  models are its only entries);
* :func:`score_candidates` -- the one candidate -> featurize -> predict
  stream: enumerate candidate pairs of a test view (all legal pairs for
  ``ML``, neighborhood pairs for ``Imp``) and classify them in
  bounded-memory chunks;
* :func:`evaluate_attack` -- record the probability of every candidate
  pair (Section III-F: thresholds are applied *afterwards*); candidates
  are always featurized afresh, never cached;
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


def _model_key(
    config: AttackConfig,
    training_views: list[SplitView],
    fraction: float | None,
    axis: str | None,
    seed: int,
    allowed: list[np.ndarray] | None,
) -> str:
    """Cache key for the fitted model: the code, the training views'
    content, the sampling decisions, the seed, ``allowed`` and every
    configuration field (backend, its parameters, ensemble knobs)."""
    return hash_key(
        "trained-model",
        code_fingerprint(),
        [view_content_hash(view) for view in training_views],
        fraction,
        axis,
        seed,
        None if allowed is None else [np.asarray(m, dtype=bool) for m in allowed],
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
    children of ``seed`` (``SeedSequence.spawn``).

    With a feature cache (``cache``, else the process default), the
    fitted model is an entry: a repeat of the same (code, configuration,
    training views, seed, ``allowed``) restores it through its backend's
    ``from_state`` -- bit-identical predictions -- and reports the
    ``train_time`` the original fit measured, so runtime columns keep
    meaning "time to train".  A miss always rebuilds the training set.
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
        if cache is not None:
            key = _model_key(config, training_views, fraction, axis, seed, allowed)
            stored = cache.get(key)
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
        with span("build_training_set") as build:
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
            build.set(n_samples=training_set.n_samples)
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
        if key is not None:
            _store_model(cache, key, backend, train_time, training_set.n_samples)
        outer.set(model="fitted", n_samples=training_set.n_samples)
        logger.debug(
            "trained %s",
            config.name,
            extra={"config": config.name, "n_samples": training_set.n_samples},
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


def evaluate_attack(
    trained: TrainedAttack,
    view: SplitView,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> AttackResult:
    """Classify the test view's candidate pairs and record probabilities.

    Pairs violating the "Y" limit (when active) are classified as
    disconnected without testing -- they simply never enter the result,
    which is also what halves the runtime in Table IV.  Candidates are
    featurized and scored one bounded chunk at a time, so peak RSS is
    one chunk's features plus the accumulated ``(i, j, prob)`` arrays.
    """
    start = time.perf_counter()
    with span(
        "evaluate", design=view.design_name, config=trained.config.name
    ) as outer:
        out_i, out_j, out_p = [], [], []
        with span("score"):
            for i, j, _, p in score_candidates(trained, view, chunk_size):
                out_i.append(i)
                out_j.append(j)
                out_p.append(p)
        n_evaluated = sum(len(i) for i in out_i)
        if out_i:
            pair_i = np.concatenate(out_i)
            pair_j = np.concatenate(out_j)
            prob = np.concatenate(out_p)
        else:
            pair_i = np.zeros(0, dtype=int)
            pair_j = np.zeros(0, dtype=int)
            prob = np.zeros(0)
        counter("pairs_featurized").inc(n_evaluated)
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
        result = evaluate_attack(trained, test_view, chunk_size)
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
