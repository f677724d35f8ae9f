"""The program's layers: which public calls the tracer wraps, and the
per-layer metrics computed from the traced records.

Each layer is named after the module it lives in.  ``TARGETS`` lists
``(layer, module, qualname, hook)``; a hook records counts (rows, bytes,
hits) or repeat keys at the call boundary.  ``per_layer_metrics`` turns
merged tracer records plus the program's own counters (run manifest,
in-process registry snapshot or ``GET /metrics``) into the metrics named
in ``BENCHMARK.json``.

Time metrics are self times: a layer's time minus the time of wrapped
calls made inside it, summed over threads and processes.  Only
``experiment.<name>.s`` is inclusive: the time of each experiment run
directly by the runner, children included.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import weakref
from typing import Any

#: The 20 experiments, in the runner's order.
EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5", "table6",
    "figure4", "figure7", "figure8", "figure9", "figure10",
    "extension_matching", "extension_classifiers", "extension_defenses",
    "extension_security", "extension_buses", "ablation_neighborhood",
    "ablation_calibration", "illustrations", "compare_paper",
)

#: Experiments whose reports print wall-clock times, so their report
#: hashes change from run to run; they are checked for presence only.
TIMED_REPORTS = (
    "table2", "table3", "table4", "extension_classifiers",
    "ablation_neighborhood", "compare_paper",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(tracer, args, kwargs, result, elapsed, outermost) -> None:
    if outermost:
        tracer.count("predict.rows", len(_arg(args, kwargs, 1, "X")))


def _featurized(tracer, args, kwargs, result, elapsed, outermost) -> None:
    if outermost:
        legal = result[0] if isinstance(result, tuple) else result
        tracer.count("featurize.rows", len(_arg(args, kwargs, 1, "i")))
        tracer.count("featurize.legal_rows", len(legal))


def _samples(tracer, args, kwargs, result, elapsed, outermost) -> None:
    if outermost:
        tracer.count("sampling.samples", result.n_samples)


def _targets(tracer, args, kwargs, result, elapsed, outermost) -> None:
    targets = _arg(args, kwargs, 3, "targets")
    attack_result = _arg(args, kwargs, 0, "result")
    tracer.count(
        "proximity.targets",
        attack_result.n_vpins if targets is None else len(targets),
    )


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _train_key(tracer, args, kwargs, result, elapsed, outermost) -> None:
    """Key a training call by config, view content, seed and mask."""
    from repro.runtime.cache import view_content_hash

    allowed = _arg(args, kwargs, 3, "allowed")
    key = _digest(
        _arg(args, kwargs, 0, "config"),
        [view_content_hash(v) for v in _arg(args, kwargs, 1, "training_views")],
        _arg(args, kwargs, 2, "seed", 0),
        None if allowed is None else [hashlib.sha256(m.tobytes()).hexdigest() for m in allowed],
    )
    tracer.key("train", key)
    tracer.memo[id(result)] = (weakref.ref(result), key)


def _evaluate_key(tracer, args, kwargs, result, elapsed, outermost) -> None:
    """Key an evaluation by the trained model's key and the test view."""
    from repro.runtime.cache import view_content_hash

    trained = _arg(args, kwargs, 0, "trained")
    ref, train_key = tracer.memo.get(id(trained), (None, None))
    if ref is None or ref() is not trained:
        # A model that did not come from a traced train call (a restored
        # artifact, a dataclasses.replace copy) never counts as a repeat.
        train_key = f"untracked-{os.getpid()}-{time.perf_counter_ns()}"
    tracer.key("evaluate", _digest(train_key, view_content_hash(_arg(args, kwargs, 1, "view"))))


def _cache_read(tracer, args, kwargs, result, elapsed, outermost) -> None:
    if outermost:
        if result is None:
            tracer.count("cache.misses")
        else:
            tracer.count("cache.hits")
            tracer.count("cache.read_bytes", sum(a.nbytes for a in result.values()))


def _cache_write(tracer, args, kwargs, result, elapsed, outermost) -> None:
    if outermost and result:
        arrays = kwargs.get("arrays", args[-1])
        tracer.count("cache.write_bytes", sum(a.nbytes for a in arrays.values()))


def _pool_task(tracer, args, kwargs, result, elapsed, outermost) -> None:
    tracer.count("pool.busy_s", elapsed)


def _experiment(name: str):
    def hook(tracer, args, kwargs, result, elapsed, outermost) -> None:
        if outermost:
            tracer.count(f"experiment.{name}.s", elapsed)
    return hook


TARGETS: tuple[tuple[str, str, str, Any], ...] = (
    ("fit", "repro.ml.backends", "ClassifierBackend.fit", None),
    ("fit", "repro.ml.bagging", "Bagging.fit", None),
    ("fit", "repro.ml.tree", "DecisionTreeBase.fit", None),
    ("fit", "repro.ml.mlp", "MLPClassifier.fit", None),
    ("fit", "repro.ml.knn", "KNNClassifier.fit", None),
    ("fit", "repro.ml.logistic", "LogisticRegression.fit", None),
    ("predict", "repro.ml.backends", "ClassifierBackend.predict_proba", _rows),
    ("predict", "repro.ml.bagging", "Bagging.predict_proba", _rows),
    ("predict", "repro.ml.tree", "DecisionTreeBase.predict_proba", _rows),
    ("predict", "repro.ml.mlp", "MLPClassifier.predict_proba", _rows),
    ("predict", "repro.ml.knn", "KNNClassifier.predict_proba", _rows),
    ("predict", "repro.ml.logistic", "LogisticRegression.predict_proba", _rows),
    ("predict", "repro.serve.engine", "StackedEnsemble.predict_proba", _rows),
    ("result", "repro.attack.result", "AttackResult.per_vpin_candidates", None),
    ("result", "repro.attack.result", "summarize", None),
    ("proximity", "repro.attack.proximity", "pa_success_rate", _targets),
    ("proximity", "repro.attack.proximity", "validate_pa_fraction", None),
    ("proximity", "repro.attack.proximity", "run_validated_pa", None),
    ("two_level", "repro.attack.two_level", "train_two_level", None),
    ("two_level", "repro.attack.two_level", "apply_two_level", None),
    ("two_level", "repro.attack.two_level", "run_two_level_fold", None),
    ("baselines", "repro.attack.baselines", "PriorWorkAttack.fit", None),
    ("baselines", "repro.attack.baselines", "PriorWorkAttack.radii", None),
    ("baselines", "repro.attack.baselines", "PriorWorkAttack.evaluate", None),
    ("baselines", "repro.attack.baselines", "PriorWorkAttack.curve", None),
    ("baselines", "repro.attack.baselines", "PriorWorkAttack.pa_success_rate", None),
    ("baselines", "repro.attack.baselines", "naive_nearest_pa", None),
    ("matching", "repro.attack.matching", "global_matching_attack", None),
    ("matching", "repro.attack.matching", "distance_weighted_matching_attack", None),
    ("matching", "repro.attack.matching", "connected_component_sizes", None),
    ("framework", "repro.attack.framework", "train_attack", _train_key),
    ("framework", "repro.attack.framework", "evaluate_attack", _evaluate_key),
    ("framework", "repro.attack.framework", "run_loo", None),
    ("sampling", "repro.splitmfg.sampling", "build_training_set", _samples),
    ("split", "repro.splitmfg.vpin_features", "make_split_view", None),
    ("split", "repro.splitmfg.split", "split_design", None),
    ("featurize", "repro.splitmfg.featurize_engine", "PairFeaturizer.rows_into", _featurized),
    ("featurize", "repro.splitmfg.featurize_engine", "PairFeaturizer.legal_rows_into", _featurized),
    ("featurize", "repro.splitmfg.pair_features", "compute_pair_features", _featurized),
    ("challenge", "repro.splitmfg.challenge", "challenge_from_dicts", None),
    ("topk", "repro.attack.topk", "evaluate_attack_topk", None),
    ("topk", "repro.attack.topk", "TopKTracker.update", None),
    ("topk", "repro.attack.topk", "TopKTracker.merge_state", None),
    ("topk", "repro.attack.topk", "TopKTracker.harvest", None),
    ("scale", "repro.attack.scale", "evaluate_attack_scaled", None),
    ("scale", "repro.attack.scale", "_score_shard", None),
    ("cache.read", "repro.runtime.cache", "FeatureCache.get", _cache_read),
    ("cache.read", "repro.runtime.cache", "FeatureCache.get_chunk", _cache_read),
    ("cache.write", "repro.runtime.cache", "FeatureCache.put", _cache_write),
    ("cache.write", "repro.runtime.cache", "FeatureCache.put_chunk", _cache_write),
    ("pool", "repro.runtime.pool", "parallel_map", None),
    ("pool", "repro.runtime.pool", "_observed_call", _pool_task),
    ("shared", "repro.runtime.shared", "share_arrays", None),
    ("shared", "repro.runtime.shared", "release_arrays", None),
    ("checkpoint", "repro.runtime.checkpoint", "CheckpointStore.save", None),
    ("service", "repro.serve.service", "AttackService.predict", None),
    ("http", "repro.serve.http", "_Handler.do_GET", None),
    ("http", "repro.serve.http", "_Handler.do_POST", None),
    ("batcher", "repro.serve.batcher", "MicroBatcher.score", None),
    ("synth", "repro.synth.benchmarks", "build_suite", None),
    ("synth", "repro.synth.paper_scale", "build_paper_scale_view", None),
    *(
        ("experiment", f"repro.experiments.{name}", "run", _experiment(name))
        for name in EXPERIMENTS
    ),
    ("reporting", "repro.experiments.run_all", "render_report", None),
    ("reporting", "repro.reporting", "ascii_table", None),
    ("obs.manifest", "repro.experiments.run_all", "build_run_manifest", None),
    ("obs.manifest", "repro.obs.manifest", "write_manifest", None),
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("fit.s", "s", "lower"),
    ("fit.calls", "count", "lower"),
    ("fit.tree_fits", "count", "lower"),
    ("fit.split_nodes", "count", "lower"),
    ("fit.kernel_fallback_frac", "fraction", "lower"),
    ("predict.s", "s", "lower"),
    ("predict.calls", "count", "lower"),
    ("predict.rows_per_call", "rows", "higher"),
    ("result.group_s", "s", "lower"),
    ("result.group_calls", "count", "lower"),
    ("proximity.s", "s", "lower"),
    ("proximity.targets", "count", "lower"),
    ("two_level.s", "s", "lower"),
    ("baselines.s", "s", "lower"),
    ("matching.s", "s", "lower"),
    ("framework.self_s", "s", "lower"),
    ("framework.train_calls", "count", "lower"),
    ("framework.train_repeats", "count", "lower"),
    ("framework.evaluate_calls", "count", "lower"),
    ("framework.evaluate_repeats", "count", "lower"),
    ("sampling.build_s", "s", "lower"),
    ("sampling.samples", "count", "lower"),
    ("split.extract_s", "s", "lower"),
    ("featurize.s", "s", "lower"),
    ("featurize.rows", "count", "lower"),
    ("featurize.legal_frac", "fraction", "higher"),
    ("challenge.parse_s", "s", "lower"),
    ("topk.s", "s", "lower"),
    ("scale.self_s", "s", "lower"),
    ("cache.read_s", "s", "lower"),
    ("cache.write_s", "s", "lower"),
    ("cache.hit_frac", "fraction", "higher"),
    ("cache.read_mb", "MB", "lower"),
    ("cache.write_mb", "MB", "lower"),
    ("pool.self_s", "s", "lower"),
    ("pool.busy_s", "s", "lower"),
    ("pool.idle_frac", "fraction", "lower"),
    ("pool.retries", "count", "lower"),
    ("shared.s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("service.self_s", "s", "lower"),
    ("http.self_s", "s", "lower"),
    ("http.server_p50_ms", "ms", "lower"),
    ("http.server_p99_ms", "ms", "lower"),
    ("batcher.self_s", "s", "lower"),
    ("batcher.batch_size_mean", "count", "higher"),
    ("batcher.wait_p50_ms", "ms", "lower"),
    ("batcher.queue_depth_max", "count", "lower"),
    ("synth.build_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    *((f"experiment.{name}.s", "s", "lower") for name in EXPERIMENTS),
    ("reporting.s", "s", "lower"),
    ("obs.manifest_write_s", "s", "lower"),
    ("obs.trace_overhead_frac", "fraction", "lower"),
    ("other.self_s", "s", "lower"),
)


#: Per-layer metrics that are a layer's summed self time.
SELF_TIME = {
    "fit.s": "fit", "predict.s": "predict", "result.group_s": "result",
    "proximity.s": "proximity", "two_level.s": "two_level",
    "baselines.s": "baselines", "matching.s": "matching",
    "framework.self_s": "framework", "sampling.build_s": "sampling",
    "split.extract_s": "split", "featurize.s": "featurize",
    "challenge.parse_s": "challenge", "topk.s": "topk",
    "scale.self_s": "scale", "cache.read_s": "cache.read",
    "cache.write_s": "cache.write", "pool.self_s": "pool",
    "shared.s": "shared", "checkpoint.save_s": "checkpoint",
    "service.self_s": "service", "http.self_s": "http",
    "batcher.self_s": "batcher", "synth.build_s": "synth",
    "experiment.self_s": "experiment", "reporting.s": "reporting",
    "obs.manifest_write_s": "obs.manifest", "other.self_s": "other",
}


def merge_records(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum per-process tracer records; keys are concatenated."""
    merged: dict[str, Any] = {
        "self_s": {}, "calls": {}, "counts": {}, "keys": {},
        "top_s": 0.0, "root_s": 0.0, "worker_lifetime_s": 0.0, "processes": len(records),
    }
    for record in records:
        for field in ("self_s", "calls", "counts"):
            for name, value in record[field].items():
                merged[field][name] = merged[field].get(name, 0) + value
        for name, keys in record["keys"].items():
            merged["keys"].setdefault(name, []).extend(keys)
        merged["top_s"] += record["top_s"]
        if record["root"]:
            merged["root_s"] += record["root_s"]
        else:
            merged["worker_lifetime_s"] += record["lifetime_s"]
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile_ms(program: dict[str, Any], name: str, q: float) -> float:
    """Quantile ``q`` of the program histogram ``name``, in ms.

    The program's own estimator, so the value means what its latency
    gates mean: the upper bound of the bucket that holds the quantile.
    0 when the histogram is absent or empty; the observed maximum when
    the quantile falls in the overflow bucket.
    """
    from repro.obs.metrics import quantile_from_buckets

    histogram = program.get("histograms", {}).get(name)
    if not histogram or not histogram.get("count"):
        return 0.0
    value = quantile_from_buckets(program, name, q)
    return (histogram["max"] if math.isinf(value) else value) * 1e3


def per_layer_metrics(
    merged: dict[str, Any],
    program: dict[str, Any],
    overhead_frac: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged records.

    ``program`` is the program's own metrics snapshot (``counters`` and
    ``histograms``); layers a workload never enters read 0.
    """
    self_s, calls, counts = merged["self_s"], merged["calls"], merged["counts"]
    counters = program.get("counters", {})
    histograms = program.get("histograms", {})
    keys = merged["keys"]
    train_keys, evaluate_keys = keys.get("train", []), keys.get("evaluate", [])
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    busy = counts.get("pool.busy_s", 0.0)
    batch = histograms.get("serving_batch_size") or {}
    values = {
        "fit.tree_fits": sum(
            value for name, value in counters.items() if name.startswith("tree_fits")
        ),
        "fit.split_nodes": counters.get("fit_split_nodes", 0),
        "fit.kernel_fallback_frac": _ratio(
            counters.get("fit_kernel_fallbacks", 0), counters.get("fit_split_nodes", 0)
        ),
        "predict.rows_per_call": _ratio(counts.get("predict.rows", 0), calls.get("predict", 0)),
        "result.group_calls": calls.get("result", 0),
        "proximity.targets": counts.get("proximity.targets", 0),
        "framework.train_calls": len(train_keys),
        "framework.train_repeats": len(train_keys) - len(set(train_keys)),
        "framework.evaluate_calls": len(evaluate_keys),
        "framework.evaluate_repeats": len(evaluate_keys) - len(set(evaluate_keys)),
        "sampling.samples": counts.get("sampling.samples", 0),
        "featurize.rows": counts.get("featurize.rows", 0),
        "featurize.legal_frac": _ratio(
            counts.get("featurize.legal_rows", 0), counts.get("featurize.rows", 0)
        ),
        "cache.hit_frac": _ratio(hits, hits + misses),
        "cache.read_mb": counts.get("cache.read_bytes", 0) / 1e6,
        "cache.write_mb": counts.get("cache.write_bytes", 0) / 1e6,
        "pool.busy_s": busy,
        "pool.idle_frac": (
            1.0 - busy / merged["worker_lifetime_s"] if merged["worker_lifetime_s"] else 0.0
        ),
        "pool.retries": counters.get("task_retries", 0),
        "http.server_p50_ms": quantile_ms(program, "http_request_seconds{route=/predict}", 0.5),
        "http.server_p99_ms": quantile_ms(program, "http_request_seconds{route=/predict}", 0.99),
        "batcher.batch_size_mean": _ratio(batch.get("sum", 0), batch.get("count", 0)),
        "batcher.wait_p50_ms": quantile_ms(program, "serving_batch_wait_seconds", 0.5),
        "batcher.queue_depth_max": (histograms.get("serving_queue_depth") or {}).get("max", 0),
        "obs.trace_overhead_frac": overhead_frac,
        "fit.calls": calls.get("fit", 0),
        "predict.calls": calls.get("predict", 0),
    }
    for name in EXPERIMENTS:
        values[f"experiment.{name}.s"] = counts.get(f"experiment.{name}.s", 0.0)
    for metric, layer in SELF_TIME.items():
        values[metric] = self_s.get(layer, 0.0)
    return {name: float(values[name]) for name, _unit, _better in PER_LAYER}


def outside_root_frac(merged: dict[str, Any], process_wall_s: float) -> float:
    """Share of the traced process's wall that its root span missed.

    The root span (layer ``other``) covers the entry point, its imports
    and the installing of the wrappers, so what remains is interpreter
    start and exit.  Within that span self times add up to the span by
    construction; this is the part of the wall no layer can account for.
    """
    return (process_wall_s - merged["root_s"]) / process_wall_s if process_wall_s else 0.0
