"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` -- build benchmark designs and save them as JSON;
* ``split``    -- cut a saved design and print its v-pin statistics;
* ``attack``   -- run a leave-one-out attack over the suite and print
  the headline metrics for one configuration;
* ``experiments`` -- run the named paper experiments (or all of them);
* ``train-model`` -- train an attack classifier (any registered backend
  via ``--backend``: bagging, randomforest, knn, logistic, mlp) and save
  it to a model registry (``repro.serve``);
* ``predict``  -- score a public challenge file with a registry model;
* ``serve``    -- serve registry models over a JSON HTTP API;
* ``models``   -- list the models in a registry;
* ``cache``    -- inspect (``stats``/``list``, ``--json`` for machine
  consumption) or ``clear`` the on-disk feature cache;
* ``obs``      -- observability tooling: ``export-trace`` converts a
  run manifest's span trees into Chrome trace-event JSON for
  Perfetto / ``chrome://tracing``;
* ``bench``    -- benchmark trajectory tooling: ``compare`` joins two
  ``BENCH_*.json`` files and gates wall-time regressions
  (``--fail-on-regression PCT`` exits nonzero on a slowdown);
* ``paper-scale`` -- synthesize a paper-sized split view (1M-cell class
  by default) and run the full no-neighborhood scoring pass through the
  sharded bounded-RSS evaluator, writing a run manifest whose
  ``resources`` section proves the peak-RSS budget held
  (``--budget-mb`` exits 3 when exceeded);
* ``merge-runs`` -- combine shard/partial runs (from ``--shard i/N``
  or interrupted runs) into one verified run: the manifests give the
  shared configuration and checkpoint directories, every report is
  reloaded from the checkpoint stores and re-hashed (a missing
  experiment is a gap, two different reports a conflict), and the
  combined ``--out`` report is byte-identical to an uninterrupted
  serial run.

``attack``, ``experiments``, and its alias ``run-all`` accept ``--jobs N``
(process-pool parallelism over folds/experiments; bit-identical to
serial) and ``--no-cache``/``--cache-dir`` controlling the feature
memoization cache (see ``repro.runtime``).  ``experiments``/``run-all``
are additionally fault-tolerant and resumable: finished experiments are
checkpointed as they land, SIGINT/SIGTERM writes a partial
``"status": "interrupted"`` manifest (exit 130), ``--resume`` skips
experiments with a verified checkpoint, ``--shard i/N`` partitions the list for
multi-host fan-out, and ``--task-timeout`` arms the stalled-worker
watchdog.

Observability (``repro.obs``): the global ``--log-level``/``--log-json``
flags (or ``REPRO_LOG_*`` env vars) configure structured logging to
stderr; ``experiments``/``run-all`` write a run manifest under
``results/runs/`` unless ``--no-manifest`` is given (schema v2 carries
a ``resources`` section and per-span peak-RSS watermarks); ``serve``
runs the resource sampler and exposes the gauges through
``GET /metrics``.  None of it changes report bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments.common import positive_scale
from .obs.logging import configure_logging


def _configure_cache(args: argparse.Namespace) -> None:
    """Install the process-default feature cache per CLI flags."""
    from .runtime import FeatureCache, default_cache_dir, set_default_cache

    if getattr(args, "no_cache", False):
        set_default_cache(None)
        return
    set_default_cache(
        FeatureCache(getattr(args, "cache_dir", None) or default_cache_dir())
    )


def _flush_default_cache_stats() -> None:
    """Persist this run's cache counters into the cache-dir sidecar."""
    from .runtime import flush_cache_stats, get_default_cache

    cache = get_default_cache()
    if cache is not None:
        flush_cache_stats(cache)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .layout.io import save_design
    from .synth.benchmarks import BENCHMARK_SPECS, build_benchmark, spec_by_name

    specs = (
        [spec_by_name(n) for n in args.names] if args.names else list(BENCHMARK_SPECS)
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        design = build_benchmark(spec, scale=args.scale)
        path = out_dir / f"{spec.name}.json"
        save_design(design, path)
        print(
            f"{spec.name}: {design.netlist.num_cells} cells, "
            f"{design.netlist.num_nets} nets -> {path}"
        )
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    from .layout.io import load_design
    from .layout.visualize import vpin_map
    from .splitmfg.statistics import describe
    from .splitmfg.vpin_features import make_split_view

    design = load_design(args.design)
    view = make_split_view(design, args.layer)
    print(describe(view))
    if args.map and len(view):
        print()
        print(vpin_map(view))
    return 0


def _cmd_challenge(args: argparse.Namespace) -> int:
    from .layout.io import load_design
    from .splitmfg.challenge import save_challenge
    from .splitmfg.vpin_features import make_split_view

    design = load_design(args.design)
    view = make_split_view(design, args.layer)
    stem = Path(args.design).stem.replace(".json", "")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    public = out_dir / f"{stem}.L{args.layer}.public.json"
    oracle = out_dir / f"{stem}.L{args.layer}.oracle.json"
    save_challenge(view, public, oracle if not args.no_oracle else None)
    print(f"{len(view)} v-pins -> {public}")
    if not args.no_oracle:
        print(f"ground truth -> {oracle}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .attack.framework import run_loo
    from .attack.proximity import pa_success_rate
    from .reporting import ascii_table, format_percent
    from .splitmfg.vpin_features import make_split_view
    from .synth.benchmarks import build_suite

    config = _resolve_config(args)
    if config is None:
        return 2
    _configure_cache(args)
    designs = build_suite(scale=args.scale)
    views = [make_split_view(d, args.layer) for d in designs]
    results = run_loo(config, views, seed=args.seed, jobs=args.jobs)
    _flush_default_cache_stats()
    rows = [
        [
            r.view.design_name,
            len(r.view),
            r.mean_loc_size_at_threshold(0.5),
            format_percent(r.accuracy_at_threshold(0.5)),
            format_percent(pa_success_rate(r, pa_fraction=0.02)),
            f"{r.runtime:.1f}s",
        ]
        for r in results
    ]
    print(
        ascii_table(
            ("design", "#v-pins", "|LoC|@0.5", "acc@0.5", "PA@2%", "runtime"),
            rows,
            title=f"{config.name} attack, split layer {args.layer}, scale {args.scale}",
        )
    )
    return 0


def _load_views(args: argparse.Namespace) -> list:
    """Training views from ``--designs`` files or the generated suite."""
    from .layout.io import load_design
    from .splitmfg.vpin_features import make_split_view
    from .synth.benchmarks import build_suite

    if args.designs:
        designs = [load_design(path) for path in args.designs]
    else:
        designs = build_suite(scale=args.scale)
    return [make_split_view(design, args.layer) for design in designs]


def _resolve_config(args: argparse.Namespace):
    """The AttackConfig for ``--config`` (re-pointed at ``--backend``)."""
    from .attack.config import CONFIGS_BY_NAME
    from .ml.backends import list_backends

    config = CONFIGS_BY_NAME.get(args.config)
    if config is None:
        print(
            f"unknown configuration {args.config!r}; "
            f"choose from {sorted(CONFIGS_BY_NAME)}",
            file=sys.stderr,
        )
        return None
    backend = getattr(args, "backend", None)
    if backend is not None:
        if backend not in list_backends():
            print(
                f"unknown backend {backend!r}; "
                f"choose from {list_backends()}",
                file=sys.stderr,
            )
            return None
        config = config.with_backend(backend)
    return config


def _cmd_train_model(args: argparse.Namespace) -> int:
    from .serve import ModelRegistry
    from .serve.service import train_model

    config = _resolve_config(args)
    if config is None:
        return 2
    views = _load_views(args)
    artifact = train_model(config, views, seed=args.seed)
    entry = ModelRegistry(args.registry).save(artifact, name=args.name)
    meta = artifact.meta
    print(
        f"{entry.model_id}: {config.name} on "
        f"{', '.join(meta['training_designs'])} (layer {args.layer}), "
        f"{meta['n_training_samples']} samples, "
        f"{meta['train_time']:.1f}s -> {entry.manifest_path}"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import json

    from .serve import AttackService, ModelNotFoundError, ModelRegistry

    try:
        service = AttackService(ModelRegistry(args.registry, create=False))
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    with open(args.challenge) as handle:
        public = json.load(handle)
    try:
        response = service.predict(
            public,
            model_id=args.model,
            threshold=args.threshold,
            top_k=args.top_k,
        )
    except ModelNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(response, handle)
        print(f"wrote {args.out}")
    mode = (
        f"top-{response['top_k']}"
        if response["top_k"] is not None
        else f"threshold {response['threshold']}"
    )
    print(
        f"{response['design']} (layer {response['split_layer']}): "
        f"{response['n_vpins']} v-pins, "
        f"{response['n_pairs_evaluated']} pairs scored with "
        f"{response['model_id']} at {mode}; "
        f"mean |LoC| {response['mean_loc_size']:.2f}, "
        f"{response['time_s']:.2f}s"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs.resources import start_resource_sampling, stop_resource_sampling
    from .serve import AttackService, ModelRegistry, make_server

    try:
        service = AttackService(ModelRegistry(args.registry, create=False))
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout or None,
    )
    server.quiet = args.quiet
    start_resource_sampling()  # /metrics reports live RSS/CPU gauges
    host, port = server.server_address[:2]
    print(f"serving {len(service.models())} model(s) on http://{host}:{port}")
    print("endpoints: GET /health, GET /models, GET /metrics, POST /predict")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        stop_resource_sampling()
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from .reporting import ascii_table
    from .serve import ModelRegistry

    try:
        entries = ModelRegistry(args.registry, create=False).list()
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    if not entries:
        print(f"no models in {args.registry}")
        return 0
    rows = [
        [
            e.model_id,
            e.kind,
            e.meta.get("config", {}).get("name", "-"),
            e.meta.get("split_layer", "-"),
            e.n_estimators,
            ", ".join(e.meta.get("training_designs", [])) or "-",
        ]
        for e in entries
    ]
    print(
        ascii_table(
            ("model", "kind", "config", "layer", "#est", "trained on"),
            rows,
            title=f"registry {args.registry}",
        )
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.run_all import execute

    _configure_cache(args)
    code, outputs = execute(args, command="experiments")
    if outputs is None:
        return code
    if args.no_manifest:
        _flush_default_cache_stats()
    for name, output in outputs.items():
        print(f"\n## {name}\n")
        print(output.report)
    return code


def _cmd_merge_runs(args: argparse.Namespace) -> int:
    from .experiments.run_all import merge_runs, render_report
    from .obs.manifest import write_manifest

    try:
        outputs, merged = merge_runs(
            args.manifests, checkpoint_dir=args.checkpoint_dir
        )
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_report(outputs, timings=False) + "\n")
        print(f"combined report -> {args.out}", file=sys.stderr)
    path = write_manifest(merged, args.manifest_dir)
    print(
        f"merged {len(args.manifests)} manifest(s), "
        f"{len(outputs)} experiment(s) verified -> {path}"
    )
    return 0


def _format_bytes(n: int | float) -> str:
    return f"{n / 1e6:.1f} MB"


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from .runtime import FeatureCache, default_cache_dir, flush_cache_stats

    cache = FeatureCache(args.cache_dir or default_cache_dir())
    action = "clear" if args.clear else args.action
    if action == "clear":
        removed = cache.clear()
        flush_cache_stats(cache)
        print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    if action == "list":
        for path in cache.entries():
            print(f"{path.stat().st_size:>12}  {path.name}")
        print(f"{len(cache)} entries, {_format_bytes(cache.total_bytes())}")
        return 0
    # stats (the default): live footprint plus the lifetime sidecar.
    totals = cache.persisted_stats()
    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "dir": str(cache.root),
                    "entries": len(cache),
                    "total_bytes": cache.total_bytes(),
                    "lifetime": totals,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        f"{cache.root}: {len(cache)} entries, "
        f"{_format_bytes(cache.total_bytes())}"
    )
    print(
        f"lifetime: {totals['hits']} hits, {totals['misses']} misses, "
        f"{totals['puts']} puts ({totals['put_rejected']} rejected), "
        f"{totals['evicted']} evicted"
    )
    print(
        f"traffic: {_format_bytes(totals['hit_bytes'])} served from cache, "
        f"{_format_bytes(totals['put_bytes'])} written"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.trace_export import export_trace

    # Only one action so far; argparse guarantees it is "export-trace".
    try:
        trace = export_trace(args.manifest, args.out)
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    spans = sum(
        1 for event in trace["traceEvents"] if event.get("ph") == "X"
    )
    lanes = len({
        event["tid"] for event in trace["traceEvents"] if event.get("ph") == "X"
    })
    print(
        f"{spans} span(s) on {lanes} lane(s) -> {args.out} "
        "(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs.bench import (
        compare_records,
        find_current_bench,
        latest_by_case,
        load_bench_records,
        regressions,
        render_comparison,
    )

    current_path = args.current or find_current_bench()
    if current_path is None:
        print(
            "no BENCH_*.json trajectory found in the working directory; "
            "pass --current explicitly",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = latest_by_case(load_bench_records(args.baseline))
        current = latest_by_case(load_bench_records(current_path))
    except (FileNotFoundError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    rows = compare_records(baseline, current)
    table = render_comparison(rows, threshold_pct=args.fail_on_regression)
    print(table)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(table + "\n")
    if args.fail_on_regression is not None:
        regressed = regressions(rows, args.fail_on_regression)
        if regressed:
            for row in regressed:
                print(
                    f"REGRESSION: {row['suite']}::{row['case']} "
                    f"{row['baseline_wall_s']:.3f}s -> "
                    f"{row['current_wall_s']:.3f}s "
                    f"({row['delta_pct']:+.1f}% > +{args.fail_on_regression:g}%)",
                    file=sys.stderr,
                )
            return 1
    return 0


def _cmd_paper_scale(args: argparse.Namespace) -> int:
    import time

    from .attack.config import AttackConfig
    from .attack.framework import train_attack
    from .attack.scale import evaluate_attack_scaled
    from .obs.manifest import build_manifest, write_manifest
    from .obs.metrics import get_registry
    from .obs.resources import (
        resources_snapshot,
        start_resource_sampling,
        stop_resource_sampling,
    )
    from .obs.trace import drain_spans
    from .synth.paper_scale import PaperScaleConfig, build_paper_scale_view

    start_resource_sampling()
    drain_spans()  # the manifest should only carry this run's spans
    t0 = time.perf_counter()
    config = AttackConfig(name=f"ML-{args.features}", n_features=args.features)
    test_config = PaperScaleConfig(
        n_cells=args.cells, split_layer=args.layer, seed=args.seed
    )
    # A separate (smaller) design trains the classifier; the paper's
    # LOO protocol never trains on the scored design.
    train_view = build_paper_scale_view(
        PaperScaleConfig(
            n_cells=args.train_cells,
            split_layer=args.layer,
            seed=args.seed + 1,
        )
    )
    view = build_paper_scale_view(test_config)
    trained = train_attack(config, [train_view], seed=args.seed)
    result = evaluate_attack_scaled(
        trained,
        view,
        k=args.k,
        chunk_size=args.chunk_size,
        jobs=args.jobs,
        n_shards=args.shards,
    )
    wall = time.perf_counter() - t0
    resources = resources_snapshot()
    stop_resource_sampling()
    peak_mb = resources["peak_rss_bytes"] / 1e6
    if not args.no_manifest:
        manifest = build_manifest(
            command="paper-scale",
            config={
                "cells": args.cells,
                "train_cells": args.train_cells,
                "layer": args.layer,
                "features": args.features,
                "k": args.k,
                "chunk_size": args.chunk_size,
                "jobs": args.jobs,
                "shards": args.shards,
                "budget_mb": args.budget_mb,
            },
            seeds={"root": args.seed},
            spans=drain_spans(),
            metrics=get_registry().snapshot(),
            resources=resources,
        )
        path = write_manifest(manifest, Path(args.manifest_dir))
        print(f"run manifest -> {path}", file=sys.stderr)
    print(
        f"{view.design_name}: {len(view)} v-pins, "
        f"{result.n_pairs_evaluated} legal pairs scored in {wall:.1f}s "
        f"({result.n_pairs_evaluated / max(wall, 1e-9):,.0f} pairs/s), "
        f"peak RSS {peak_mb:.0f} MB, "
        f"acc@0.5 {result.accuracy_at_threshold(0.5):.3f}"
    )
    if args.budget_mb is not None and peak_mb > args.budget_mb:
        print(
            f"RSS BUDGET EXCEEDED: peak {peak_mb:.0f} MB > "
            f"budget {args.budget_mb:g} MB",
            file=sys.stderr,
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    from .experiments.run_all import add_cache_arguments, add_run_arguments

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ML attacks on split manufacturing (paper reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="log level for stderr diagnostics (default: $REPRO_LOG_LEVEL "
        "or WARNING)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit JSON-lines logs instead of the human format "
        "(default: $REPRO_LOG_JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="build and save benchmarks")
    generate.add_argument("--out", default="designs")
    generate.add_argument("--scale", type=positive_scale, default=0.3)
    generate.add_argument("--names", nargs="*", default=None)
    generate.set_defaults(func=_cmd_generate)

    split = sub.add_parser("split", help="cut a saved design")
    split.add_argument("design")
    split.add_argument("--layer", type=int, default=8)
    split.add_argument("--map", action="store_true", help="ASCII v-pin density map")
    split.set_defaults(func=_cmd_split)

    challenge = sub.add_parser(
        "challenge", help="package a saved design as a public challenge"
    )
    challenge.add_argument("design")
    challenge.add_argument("--layer", type=int, default=8)
    challenge.add_argument("--out", default="challenges")
    challenge.add_argument("--no-oracle", action="store_true")
    challenge.set_defaults(func=_cmd_challenge)

    attack = sub.add_parser("attack", help="run a LOO attack on the suite")
    attack.add_argument("--config", default="Imp-11")
    attack.add_argument(
        "--backend",
        default=None,
        help="classifier backend (bagging, randomforest, knn, logistic, "
        "mlp; default: the config's backend)",
    )
    attack.add_argument("--layer", type=int, default=8)
    attack.add_argument("--scale", type=positive_scale, default=0.3)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="process-pool workers for LOOCV folds (0 = all cores)",
    )
    add_cache_arguments(attack)
    attack.set_defaults(func=_cmd_attack)

    for alias in ("experiments", "run-all"):
        experiments = sub.add_parser(
            alias,
            help="run paper experiments"
            + ("" if alias == "experiments" else " (alias of 'experiments')"),
        )
        add_run_arguments(experiments)
        experiments.set_defaults(func=_cmd_experiments)

    merge = sub.add_parser(
        "merge-runs",
        help="combine shard/partial run manifests into one verified run",
    )
    merge.add_argument(
        "manifests",
        nargs="+",
        help="run manifest JSON files (shard and/or interrupted runs)",
    )
    merge.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory to reload reports from (default: the "
        "directories recorded in the manifests)",
    )
    merge.add_argument(
        "--out",
        default=None,
        help="write the combined timing-free report to this file "
        "(byte-identical to an uninterrupted serial run)",
    )
    merge.add_argument(
        "--manifest-dir",
        default="results/runs",
        help="directory for the merged manifest (default: results/runs)",
    )
    merge.set_defaults(func=_cmd_merge_runs)

    cache = sub.add_parser(
        "cache", help="inspect (stats/list) or clear the feature cache"
    )
    cache.add_argument(
        "action",
        nargs="?",
        choices=("stats", "list", "clear"),
        default="stats",
        help="stats: footprint + lifetime hit/miss counters (default); "
        "list: entry listing; clear: delete every entry",
    )
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument(
        "--clear", action="store_true", help="alias for the 'clear' action"
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as a JSON document (stats action only)",
    )
    cache.set_defaults(func=_cmd_cache)

    obs = sub.add_parser(
        "obs", help="observability tooling (trace export)"
    )
    obs_sub = obs.add_subparsers(dest="obs_action", required=True)
    export_trace = obs_sub.add_parser(
        "export-trace",
        help="convert a run manifest into Chrome trace-event JSON "
        "(Perfetto / chrome://tracing)",
    )
    export_trace.add_argument(
        "manifest", help="run manifest JSON (results/runs/<id>.json)"
    )
    export_trace.add_argument(
        "-o",
        "--out",
        default="trace.json",
        help="output trace file (default: trace.json)",
    )
    export_trace.set_defaults(func=_cmd_obs)

    bench = sub.add_parser(
        "bench", help="benchmark trajectory tooling (regression gate)"
    )
    bench_sub = bench.add_subparsers(dest="bench_action", required=True)
    bench_compare = bench_sub.add_parser(
        "compare",
        help="join two BENCH_*.json trajectories by (suite, case) and "
        "print the wall-time delta table",
    )
    bench_compare.add_argument(
        "--baseline",
        default="benchmarks/baseline.json",
        help="baseline trajectory file (default: benchmarks/baseline.json)",
    )
    bench_compare.add_argument(
        "--current",
        default=None,
        help="current trajectory file (default: newest BENCH_*.json in "
        "the working directory)",
    )
    bench_compare.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero when any case is slower than baseline by "
        "more than PCT percent",
    )
    bench_compare.add_argument(
        "--out",
        default=None,
        help="also write the delta table to this file (CI artifact)",
    )
    bench_compare.set_defaults(func=_cmd_bench)

    paper_scale = sub.add_parser(
        "paper-scale",
        help="bounded-RSS scoring pass at paper design sizes",
    )
    paper_scale.add_argument(
        "--cells", type=int, default=1_000_000,
        help="cell count of the synthesized scored design",
    )
    paper_scale.add_argument(
        "--train-cells", type=int, default=100_000,
        help="cell count of the (separate) training design",
    )
    paper_scale.add_argument(
        "--layer", type=int, default=8, choices=(4, 6, 8),
        help="split via layer (sets v-pin density)",
    )
    paper_scale.add_argument("--seed", type=int, default=0)
    paper_scale.add_argument(
        "--features", type=int, default=9, choices=(7, 9, 11),
    )
    paper_scale.add_argument(
        "--k", type=int, default=64,
        help="top-K candidates kept per v-pin",
    )
    paper_scale.add_argument("--chunk-size", type=int, default=400_000)
    paper_scale.add_argument("--jobs", type=int, default=1)
    paper_scale.add_argument(
        "--shards", type=int, default=None,
        help="row shards (default: jobs); fixes the result regardless of --jobs",
    )
    paper_scale.add_argument(
        "--budget-mb", type=float, default=None,
        help="exit 3 if peak RSS exceeds this many MB",
    )
    paper_scale.add_argument("--manifest-dir", default="results/runs")
    paper_scale.add_argument("--no-manifest", action="store_true")
    paper_scale.set_defaults(func=_cmd_paper_scale)

    train_model = sub.add_parser(
        "train-model", help="train a classifier and register it for serving"
    )
    train_model.add_argument("--config", default="Imp-11")
    train_model.add_argument(
        "--backend",
        default=None,
        help="classifier backend (bagging, randomforest, knn, logistic, "
        "mlp; default: the config's backend)",
    )
    train_model.add_argument("--layer", type=int, default=8)
    train_model.add_argument("--scale", type=positive_scale, default=0.3)
    train_model.add_argument("--seed", type=int, default=0)
    train_model.add_argument(
        "--designs",
        nargs="*",
        default=None,
        help="design JSON files to train on (default: the generated suite)",
    )
    train_model.add_argument("--registry", default="models")
    train_model.add_argument(
        "--name", default=None, help="registry name (default: the config name)"
    )
    train_model.set_defaults(func=_cmd_train_model)

    predict = sub.add_parser(
        "predict", help="score a public challenge file with a registry model"
    )
    predict.add_argument("challenge", help="public challenge JSON file")
    predict.add_argument("--registry", default="models")
    predict.add_argument(
        "--model", default=None, help="model id or name (default: newest model)"
    )
    predict.add_argument("--threshold", type=float, default=None)
    predict.add_argument("--top-k", type=int, default=None, dest="top_k")
    predict.add_argument("--out", default=None, help="write the full JSON response")
    predict.set_defaults(func=_cmd_predict)

    serve = sub.add_parser("serve", help="serve registry models over HTTP")
    serve.add_argument("--registry", default="models")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-connection socket read timeout in seconds (0 disables)",
    )
    serve.add_argument(
        "--quiet",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="suppress per-request logging",
    )
    serve.set_defaults(func=_cmd_serve)

    models = sub.add_parser("models", help="list the models in a registry")
    models.add_argument("--registry", default="models")
    models.set_defaults(func=_cmd_models)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        level=args.log_level, json_lines=args.log_json or None
    )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
