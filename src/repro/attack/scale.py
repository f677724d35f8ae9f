"""Paper-scale scoring: sharded, bounded-RSS top-K evaluation.

:func:`evaluate_attack_scaled` runs the no-neighborhood scoring pass the
paper's largest experiments need -- every legal pair of a 1M-cell-class
view through the classifier -- with peak RSS bounded by *one* chunk of
features plus O(n*k) tracker state, no matter how many pairs stream
through:

* the pair triangle is cut into contiguous **row shards** balanced by
  pair count (:func:`shard_rows`), one work item per shard;
* the view's feature columns ship to workers as
  :class:`~repro.runtime.shared.SharedArray` segments -- one copy
  machine-wide, a few bytes per task on the wire;
* each shard streams its rows through a preallocated-buffer
  :class:`~repro.splitmfg.featurize_engine.PairFeaturizer` into a
  per-shard :class:`~repro.attack.topk.TopKTracker` and returns only
  the tracker's fixed-size ``(n, k)`` state;
* the parent merges shard states **in shard order**, so the result is
  identical for every ``--jobs`` setting (ties in merge order depend on
  ``n_shards``, never on scheduling).
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.metrics import counter
from ..obs.trace import span
from ..runtime import parallel_map, release_arrays, share_arrays
from ..splitmfg.split import SplitView
from .framework import TrainedAttack, score_candidates
from .result import AttackResult
from .topk import TopKTracker


def shard_rows(n: int, n_shards: int) -> list[tuple[int, int]]:
    """Cut the pair-triangle rows ``[0, n-1)`` into balanced shards.

    Row ``r`` of :func:`~repro.splitmfg.sampling.iter_all_pairs`
    contributes ``n - 1 - r`` pairs, so equal *row* ranges would give the
    first shard nearly all the work; shards are instead cut at equal
    cumulative pair counts.  Returns ``n_shards`` ``(row_lo, row_hi)``
    half-open ranges (some possibly empty for tiny ``n``).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    last = max(n - 1, 0)
    counts = np.arange(last, 0, -1, dtype=np.int64)
    if counts.size == 0:
        return [(0, 0)] * n_shards
    cum = np.cumsum(counts)
    total = int(cum[-1])
    bounds = [0]
    for s in range(1, n_shards):
        row = int(np.searchsorted(cum, total * s / n_shards))
        bounds.append(max(bounds[-1], min(row, last)))
    bounds.append(last)
    return [(bounds[t], bounds[t + 1]) for t in range(n_shards)]


def _score_shard(payload: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """Worker: stream one row shard, return top-K state + pair count."""
    cols, trained, n, row_lo, row_hi, chunk_size, k = payload
    arrays = {name: sa.array for name, sa in cols.items()}
    tracker = TopKTracker(n, k)
    n_evaluated = 0
    for i, j, _X, p in score_candidates(
        trained, arrays, chunk_size, rows=(row_lo, row_hi)
    ):
        tracker.update(i, j, p)
        n_evaluated += len(i)
    partner, prob = tracker.state()
    return partner, prob, n_evaluated


def evaluate_attack_scaled(
    trained: TrainedAttack,
    view: SplitView,
    k: int = 64,
    chunk_size: int = 400_000,
    jobs: int = 1,
    n_shards: int | None = None,
) -> AttackResult:
    """Sharded top-K scoring of every legal pair of ``view``.

    Only the all-pairs testing rule is supported (``trained`` must have
    no neighborhood and no axis limit -- the paper-scale ``ML``
    configurations); the per-v-pin top-``k`` semantics match
    :func:`~repro.attack.topk.evaluate_attack_topk`.  ``n_shards``
    defaults to ``max(jobs, 1)`` and fully determines the result;
    ``jobs`` only decides how many shards run concurrently.
    """
    if trained.neighborhood is not None or trained.limit_axis is not None:
        raise ValueError(
            "evaluate_attack_scaled supports only all-pairs configs "
            "(no neighborhood, no axis limit)"
        )
    if n_shards is None:
        n_shards = max(jobs, 1)
    start = time.perf_counter()
    n = len(view)
    shards = shard_rows(n, n_shards)
    cols = share_arrays(view.arrays())
    try:
        with span(
            "score_scaled",
            design=view.design_name,
            config=trained.config.name,
            shards=n_shards,
        ):
            payloads = [
                (cols, trained, n, lo, hi, chunk_size, k) for lo, hi in shards
            ]
            states = parallel_map(_score_shard, payloads, jobs=jobs)
    finally:
        release_arrays(cols)
    tracker = TopKTracker(n, k)
    n_evaluated = 0
    for partner, prob, shard_pairs in states:
        tracker.merge_state(partner, prob)
        n_evaluated += shard_pairs
    counter("pairs_featurized").inc(n_evaluated)
    counter("candidates_scored").inc(n_evaluated)
    pair_i, pair_j, prob = tracker.harvest()
    return AttackResult(
        view=view,
        pair_i=pair_i,
        pair_j=pair_j,
        prob=prob,
        config_name=f"{trained.config.name}+top{k}x{n_shards}",
        train_time=trained.train_time,
        test_time=time.perf_counter() - start,
        n_pairs_evaluated=n_evaluated,
    )
