"""Benchmark of the top-K merge: batched tracker vs the per-v-pin oracle.

Scores every legal pair of a reduced paper-scale view (200k cells, the
size of the CI ``paper-scale-smoke`` pass) with ML-9 trained on a
separate 50k-cell view, then streams the same scored chunks through
:class:`~repro.attack.topk.TopKTracker` and through the per-v-pin
reference loop kept in ``tests/attack/topk_oracle.py``.  The two must
end in byte-identical ``(n, k)`` state, order included.  The best-of-3
update time of each is appended to ``BENCH_<date>.json`` (or
``$REPRO_BENCH_JSON``); ``repro bench compare`` gates the batched one
against ``benchmarks/baseline.json``.

    PYTHONPATH=src python -m pytest benchmarks/test_topk.py -q -s
"""

import time

from repro.attack.config import AttackConfig
from repro.attack.framework import train_attack
from repro.attack.topk import TopKTracker
from repro.splitmfg.featurize_engine import PairFeaturizer
from repro.splitmfg.sampling import iter_all_pairs, max_chunk_rows
from repro.synth.paper_scale import PaperScaleConfig, build_paper_scale_view
from tests.attack.topk_oracle import OracleTopKTracker, assert_same_state

from .conftest import append_records, bench_json_path, make_record

CELLS = 200_000
TRAIN_CELLS = 50_000
K = 64
CHUNK_SIZE = 400_000


def _scored_chunks():
    """``(i, j, p)`` for every legal pair of the 200k-cell view."""
    config = AttackConfig(name="ML-9", n_features=9)
    train_view = build_paper_scale_view(PaperScaleConfig(n_cells=TRAIN_CELLS, seed=1))
    trained = train_attack(config, [train_view], seed=0)
    view = build_paper_scale_view(PaperScaleConfig(n_cells=CELLS))
    featurizer = PairFeaturizer(view, config.features)
    buffer = featurizer.out_buffer(max_chunk_rows(len(view), CHUNK_SIZE))
    chunks = []
    for i, j in iter_all_pairs(len(view), CHUNK_SIZE):
        i, j, X = featurizer.legal_rows_into(i, j, buffer)
        chunks.append((i, j, trained.model.predict_proba(X)))
    return len(view), chunks


def _stream(tracker_cls, n, chunks, rounds=3):
    """Best-of-``rounds`` wall time of streaming every chunk into a
    fresh tracker, plus the last tracker."""
    best = float("inf")
    for _ in range(rounds):
        tracker = tracker_cls(n, K)
        start = time.perf_counter()
        for i, j, p in chunks:
            tracker.update(i, j, p)
        best = min(best, time.perf_counter() - start)
    return best, tracker


def test_topk_matches_oracle():
    n, chunks = _scored_chunks()
    oracle_s, oracle = _stream(OracleTopKTracker, n, chunks)
    batched_s, batched = _stream(TopKTracker, n, chunks)
    assert_same_state(batched, oracle)
    n_pairs = sum(len(i) for i, _j, _p in chunks)
    records = []
    for case, wall in (("topk_oracle", oracle_s), ("topk_batched", batched_s)):
        record = make_record(
            suite="benchmarks.test_topk", case=case, wall_s=wall, rounds=3
        )
        record["n_vpins"] = n
        record["n_pairs_scored"] = n_pairs
        records.append(record)
    append_records(bench_json_path(), records)
    print(
        f"\n{n_pairs} pairs, {n} v-pins, k={K}: oracle {oracle_s:.3f}s, "
        f"batched {batched_s:.3f}s ({oracle_s / batched_s:.1f}x)"
    )
