"""Run every table/figure experiment and emit a combined report.

``python -m repro.experiments.run_all --scale 0.5 --jobs 4 --out
EXPERIMENTS.out`` regenerates the full evaluation; the per-experiment
sections are the inputs to EXPERIMENTS.md.

Experiments are independent of each other, so ``--jobs N`` fans them
out over a process pool (``repro.runtime.parallel_map``).  Every
experiment seeds itself from ``(seed, fold)`` alone, so the combined
output is bit-identical for every ``N`` -- only the ``elapsed`` stamps
(which never enter ``--out`` files) differ.

The runner is **fault-tolerant and resumable**.  The checkpoint store
(:class:`repro.runtime.CheckpointStore`) is the one record of finished
work:

* every finished experiment is checkpointed atomically (report bytes +
  SHA-256) by the parent process the moment its result lands, so a
  crash, OOM kill, SIGKILL or Ctrl-C loses at most the work in flight;
* ``--resume`` skips every experiment with a verified checkpoint for
  its ``(name, scale, seed)`` and re-runs only the rest -- no manifest
  of the earlier run is needed;
* SIGINT/SIGTERM writes a *partial* manifest (``"status":
  "interrupted"``) listing the experiments checkpointed so far;
* ``--shard i/N`` partitions the experiment list deterministically
  (round-robin over the canonical order) for multi-host fan-out, and
  :func:`merge_runs` (CLI: ``repro merge-runs``) reloads the shards'
  checkpoint stores into one verified run whose combined report is
  byte-identical to an uninterrupted serial run;
* ``--task-timeout`` arms the pool watchdog
  (:class:`repro.runtime.RetryPolicy`), turning a stalled worker into
  a retried task.

Each invocation also writes a **run manifest**
(``results/runs/<timestamp>-<id>.json`` by default, ``--no-manifest``
to skip): the configuration, root seed, package versions, per-experiment
span trees (merged from pool workers), the metrics snapshot, and the
feature-cache statistics.  The manifest is observability output only --
the report text never depends on it, and no later run reads it back
except ``repro merge-runs``, for its configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import signal
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from ..obs.logging import configure_logging
from ..obs.manifest import (
    DEFAULT_MANIFEST_DIR,
    build_manifest,
    load_manifest,
    write_manifest,
)
from ..obs.metrics import counter, gauge, get_registry
from ..obs.resources import resource_sampling, resources_snapshot
from ..obs.trace import drain_spans, dropped_spans, span
from ..runtime import (
    CheckpointStore,
    FeatureCache,
    RetryPolicy,
    default_cache_dir,
    flush_cache_stats,
    get_default_cache,
    parallel_map,
    run_key,
    set_default_cache,
)
from . import (
    ablation_calibration,
    ablation_neighborhood,
    compare_paper,
    illustrations,
    extension_buses,
    extension_classifiers,
    extension_defenses,
    extension_matching,
    extension_security,
    figure4,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from .common import DEFAULT_SCALE, ExperimentOutput, get_suite, positive_scale

ALL_EXPERIMENTS = (
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("figure4", figure4),
    ("figure7", figure7),
    ("figure8", figure8),
    ("figure9", figure9),
    ("figure10", figure10),
    ("extension_matching", extension_matching),
    ("extension_classifiers", extension_classifiers),
    ("extension_defenses", extension_defenses),
    ("extension_security", extension_security),
    ("extension_buses", extension_buses),
    ("ablation_neighborhood", ablation_neighborhood),
    ("ablation_calibration", ablation_calibration),
    ("illustrations", illustrations),
    ("compare_paper", compare_paper),
)

EXPERIMENTS_BY_NAME = dict(ALL_EXPERIMENTS)

#: CLI exit code of an interrupted (SIGINT/SIGTERM) run, 128 + SIGINT.
EXIT_INTERRUPTED = 130


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``--shard i/N`` (1-based) into a validated ``(i, N)``."""
    try:
        index_text, _, count_text = text.partition("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like i/N (e.g. 1/2), got {text!r}"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard index must satisfy 1 <= i <= N, got {text!r}"
        )
    return index, count


def shard_slice(names: list[str], shard: tuple[int, int]) -> list[str]:
    """This shard's deterministic round-robin partition of ``names``.

    Partitioning is by position in the canonical experiment order, so
    every host computes the same split from ``(i, N)`` alone and the
    union over all shards is exactly the full list with no overlaps.
    """
    index, count = shard
    return names[index - 1 :: count]


def experiment_names(
    only: tuple[str, ...] | None = None,
    shard: tuple[int, int] | None = None,
) -> list[str]:
    """The canonical-order experiment list after filters."""
    names = [
        name
        for name, _module in ALL_EXPERIMENTS
        if only is None or name in only
    ]
    if shard is not None:
        names = shard_slice(names, shard)
    return names


def default_checkpoint_dir(
    manifest_dir: str | Path, scale: float, seed: int
) -> Path:
    """Checkpoints live next to their manifests, keyed by (scale, seed)."""
    return Path(manifest_dir) / "checkpoints" / run_key(scale, seed)


def load_checkpointed(
    store: CheckpointStore, names: list[str], scale: float, seed: int
) -> dict[str, ExperimentOutput]:
    """The outputs of every experiment in ``names`` that ``store`` holds
    a verified checkpoint for, in ``names`` order."""
    outputs: dict[str, ExperimentOutput] = {}
    for name in names:
        record = store.load(name, scale=scale, seed=seed)
        if record is not None:
            outputs[name] = ExperimentOutput(
                experiment=name,
                report=record["report"],
                data={"elapsed_seconds": record["elapsed_seconds"]},
            )
    return outputs


def _run_one(task: tuple[str, float, int, str | None]) -> ExperimentOutput:
    """One experiment, self-contained for a pool worker.

    The feature-cache directory travels in the task (not via inherited
    globals) so behavior is identical under ``fork`` and ``spawn``.
    """
    name, scale, seed, cache_dir = task
    if cache_dir is not None and get_default_cache() is None:
        set_default_cache(FeatureCache(cache_dir))
    start = time.perf_counter()
    with span("experiment", name=name, scale=scale, seed=seed):
        output = EXPERIMENTS_BY_NAME[name].run(scale=scale, seed=seed)
    counter("experiments_completed").inc()
    output.data["elapsed_seconds"] = time.perf_counter() - start
    return output


def run_all(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    only: tuple[str, ...] | None = None,
    jobs: int = 1,
    *,
    shard: tuple[int, int] | None = None,
    checkpoints: CheckpointStore | None = None,
    resume: bool = False,
    retry: RetryPolicy | None = None,
) -> dict[str, ExperimentOutput]:
    """Run all (or the named) experiments; returns outputs by name.

    ``jobs > 1`` distributes whole experiments over a process pool.

    ``checkpoints`` (a :class:`~repro.runtime.CheckpointStore`) makes
    the run crash-survivable: each finished experiment is persisted the
    moment its result reaches the parent.  ``resume`` (which needs
    ``checkpoints``) skips every experiment with a verified checkpoint
    -- the skipped outputs are rebuilt from the checkpointed bytes, so
    the combined report is byte-identical to a fresh run.  ``shard``
    restricts this invocation to its :func:`shard_slice` of the list;
    ``retry`` overrides the pool's default
    :class:`~repro.runtime.RetryPolicy`.
    """
    names = experiment_names(only, shard)
    outputs: dict[str, ExperimentOutput] = {}
    if resume:
        outputs = load_checkpointed(checkpoints, names, scale, seed)
    for output in outputs.values():
        output.data["resumed"] = True
        counter("experiments_resumed").inc()
    to_run = [name for name in names if name not in outputs]
    cache = get_default_cache()
    cache_dir = str(cache.root) if cache is not None else None
    if jobs is not None and jobs != 1 and len(to_run) > 1:
        # Warm the process-local suite cache before the pool forks so
        # workers inherit the built designs instead of rebuilding them.
        get_suite(scale)
    tasks = [(name, scale, seed, cache_dir) for name in to_run]

    def _checkpoint_result(index: int, output: ExperimentOutput) -> None:
        if checkpoints is None:
            return
        checkpoints.save(
            to_run[index],
            scale=scale,
            seed=seed,
            report=output.report,
            elapsed_seconds=output.data.get("elapsed_seconds", 0.0),
        )

    # Sample RSS/CPU for the duration of the run: the gauges and the
    # per-span peak_rss_bytes watermarks land in the manifest, never in
    # the report.  The context manager uninstalls the span hook on exit
    # so spans recorded outside run_all stay watermark-free.
    with resource_sampling():
        with span("run_all", scale=scale, seed=seed, jobs=jobs, n=len(names)):
            ran = parallel_map(
                _run_one,
                tasks,
                jobs=jobs,
                retry=retry,
                on_result=_checkpoint_result,
            )
    outputs.update(zip(to_run, ran))
    return {name: outputs[name] for name in names}


def render_report(
    outputs: dict[str, ExperimentOutput], timings: bool = True
) -> str:
    """The combined multi-section report.

    ``timings=False`` omits the per-section elapsed stamps: that is the
    form written to ``--out`` files, so serial and parallel runs of the
    same seed produce byte-identical documents.
    """
    sections = []
    for name, output in outputs.items():
        if timings:
            elapsed = output.data.get("elapsed_seconds", 0.0)
            sections.append(
                f"## {name} (elapsed {elapsed:.1f}s)\n\n{output.report}"
            )
        else:
            sections.append(f"## {name}\n\n{output.report}")
    return "\n\n".join(sections)


def _manifest_config(
    scale: float,
    seed: int,
    jobs: int | None,
    only: tuple[str, ...] | None,
    shard: tuple[int, int] | None,
    checkpoint_dir: str | Path | None,
    task_timeout: float | None,
) -> dict[str, Any]:
    cache = get_default_cache()
    return {
        "scale": scale,
        "seed": seed,
        "jobs": jobs,
        "only": list(only) if only else None,
        "cache_dir": str(cache.root) if cache is not None else None,
        "shard": f"{shard[0]}/{shard[1]}" if shard else None,
        "checkpoint_dir": str(checkpoint_dir) if checkpoint_dir else None,
        "task_timeout": task_timeout,
    }


def _shard_document(shard: tuple[int, int] | None) -> dict[str, int] | None:
    return {"index": shard[0], "count": shard[1]} if shard else None


def build_run_manifest(
    outputs: dict[str, ExperimentOutput],
    scale: float,
    seed: int,
    jobs: int | None,
    only: tuple[str, ...] | None = None,
    command: str = "run_all",
    *,
    status: str = "completed",
    shard: tuple[int, int] | None = None,
    resumed: list[str] | None = None,
    merged_from: list[str] | None = None,
    checkpoint_dir: str | Path | None = None,
    task_timeout: float | None = None,
) -> dict[str, Any]:
    """Assemble the run manifest for one ``run_all`` invocation.

    Completed, interrupted (``status="interrupted"``, over the outputs
    reloaded from checkpoints) and merged (``merged_from``) runs all
    take their manifest from here.  Collects the span trees accumulated
    since the last drain, the metrics registry snapshot (including
    merged pool-worker counts), the resource telemetry (RSS / peak RSS
    / CPU, with pool-worker peaks folded in by max), and the
    feature-cache statistics (flushing the lifetime sidecar as a side
    effect).  Per-experiment entries carry the elapsed time and a
    SHA-256 of the report section, so two manifests can prove their
    reports were byte-identical without storing the text twice.
    """
    experiments = {
        name: {
            "elapsed_seconds": round(
                output.data.get("elapsed_seconds", 0.0), 6
            ),
            "report_sha256": hashlib.sha256(
                output.report.encode()
            ).hexdigest(),
        }
        for name, output in outputs.items()
    }
    cache = get_default_cache()
    cache_document = None
    if cache is not None:
        cache_document = cache.stats()
        cache_document["lifetime"] = flush_cache_stats(cache)
    gauge("trace_dropped_spans").set(dropped_spans())
    resources = resources_snapshot()
    return build_manifest(
        command=command,
        config=_manifest_config(
            scale, seed, jobs, only, shard, checkpoint_dir, task_timeout
        ),
        seeds={
            "root": seed,
            "derivation": "np.random.SeedSequence(root).spawn per fold",
        },
        spans=drain_spans(),
        metrics=get_registry().snapshot(),
        cache=cache_document,
        experiments=experiments,
        resources=resources,
        status=status,
        shard=_shard_document(shard),
        resumed=resumed,
        merged_from=merged_from,
    )


def merge_runs(
    manifest_paths: list[str | Path],
    checkpoint_dir: str | Path | None = None,
) -> tuple[dict[str, ExperimentOutput], dict[str, Any]]:
    """Combine shard/partial runs into one verified run.

    The manifests supply configuration only: their shared scale, seed
    and ``--only`` filter, and the checkpoint directories to search
    (``checkpoint_dir`` replaces those when given).  Coverage, hashes
    and bytes come from the checkpoint stores: every expected
    experiment needs a verified checkpoint in some store, and two
    stores holding different reports for one experiment conflict.
    Returns the outputs (canonical order, so :func:`render_report`
    reproduces the uninterrupted serial document byte-for-byte) plus a
    merged manifest whose ``merged_from`` lists the source run ids.

    Raises ``ValueError`` on config mismatch, coverage gaps, or
    conflicting checkpoints.
    """
    if not manifest_paths:
        raise ValueError("no manifests to merge")
    manifests = [(Path(path), load_manifest(path)) for path in manifest_paths]
    first_path, first = manifests[0]
    base = first.get("config") or {}
    scale, seed = base.get("scale"), base.get("seed")
    if scale is None or seed is None:
        raise ValueError(f"{first_path}: manifest has no scale/seed config")
    only = base.get("only")
    for path, manifest in manifests[1:]:
        config = manifest.get("config") or {}
        if config.get("scale") != scale or config.get("seed") != seed:
            raise ValueError(
                f"{path}: scale/seed differs from {first_path}"
            )
        if config.get("only") != only:
            raise ValueError(
                f"{path}: experiment selection (--only) differs from "
                f"{first_path}"
            )
    only = tuple(only) if only else None
    if checkpoint_dir is not None:
        directories = [str(checkpoint_dir)]
    else:
        recorded = (
            (manifest.get("config") or {}).get("checkpoint_dir")
            for _path, manifest in manifests
        )
        directories = [path for path in dict.fromkeys(recorded) if path]
    if not directories:
        raise ValueError(
            "no checkpoint directory recorded in the manifests; "
            "pass --checkpoint-dir"
        )
    expected = experiment_names(only)
    found: dict[str, ExperimentOutput] = {}
    for directory in directories:
        restored = load_checkpointed(
            CheckpointStore(directory), expected, scale, seed
        )
        for name, output in restored.items():
            if found.setdefault(name, output).report != output.report:
                raise ValueError(
                    f"conflicting checkpoints for {name!r} across "
                    f"{directories}"
                )
    missing = [name for name in expected if name not in found]
    if missing:
        raise ValueError(
            f"checkpoint stores {directories} do not cover: "
            + ", ".join(missing)
        )
    outputs = {name: found[name] for name in expected}
    merged = build_run_manifest(
        outputs,
        scale=scale,
        seed=seed,
        jobs=None,
        only=only,
        command="merge-runs",
        merged_from=[manifest.get("run_id") for _path, manifest in manifests],
        checkpoint_dir=checkpoint_dir,
    )
    return outputs, merged


@contextmanager
def _sigterm_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM as KeyboardInterrupt for the duration (main thread).

    SIGINT already raises KeyboardInterrupt; routing SIGTERM through the
    same path gives both signals the write-partial-manifest-then-exit
    behavior instead of dying with no manifest.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # signal handlers only install from the main thread
        return

    def _handler(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """``--no-cache``/``--cache-dir``, the feature-cache flags."""
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk feature cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="feature cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-splitmfg/features)",
    )


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Every flag of a full run: this module's CLI and ``repro run-all``
    (alias ``repro experiments``) both declare them through here."""
    parser.add_argument("--scale", type=positive_scale, default=DEFAULT_SCALE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", default=None)
    parser.add_argument(
        "--out",
        default=None,
        help="write the timing-free combined report to this file "
        "(byte-identical across --jobs values)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="process-pool workers for independent experiments "
        "(0 = all cores)",
    )
    parser.add_argument(
        "--manifest-dir",
        default=str(DEFAULT_MANIFEST_DIR),
        help="directory for the run manifest (default: results/runs)",
    )
    parser.add_argument(
        "--no-manifest",
        action="store_true",
        help="do not write a run manifest",
    )
    add_cache_arguments(parser)
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments that already have a verified checkpoint",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only this 1-based round-robin shard of the experiment "
        "list (multi-host fan-out; combine with 'repro merge-runs')",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="per-experiment checkpoint directory (default: "
        "<manifest-dir>/checkpoints/<scale-seed key>)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a pool task that runs longer than this "
        "(watchdog for stalled workers)",
    )


def execute(
    args: argparse.Namespace, command: str = "run_all"
) -> tuple[int, dict[str, ExperimentOutput] | None]:
    """The shared CLI core: run (or resume) experiments, write manifests.

    Returns ``(exit_code, outputs)``; ``outputs`` is ``None`` when the
    run failed to start or was interrupted (in which case a partial
    ``"status": "interrupted"`` manifest over the checkpointed
    experiments has been written, unless manifests are disabled).
    """
    only = tuple(args.only) if args.only else None
    try:
        shard = parse_shard(args.shard) if getattr(args, "shard", None) else None
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2, None
    manifest_dir = Path(getattr(args, "manifest_dir", DEFAULT_MANIFEST_DIR))
    checkpoints = CheckpointStore(
        getattr(args, "checkpoint_dir", None)
        or default_checkpoint_dir(manifest_dir, args.scale, args.seed)
    )
    task_timeout = getattr(args, "task_timeout", None)
    retry = RetryPolicy(task_timeout_s=task_timeout) if task_timeout else None
    drain_spans()  # the manifest should only carry this run's spans
    status = "completed"
    try:
        with _sigterm_as_interrupt():
            outputs = run_all(
                scale=args.scale,
                seed=args.seed,
                only=only,
                jobs=args.jobs,
                shard=shard,
                checkpoints=checkpoints,
                resume=getattr(args, "resume", False),
                retry=retry,
            )
    except KeyboardInterrupt:
        status = "interrupted"
        outputs = load_checkpointed(
            checkpoints, experiment_names(only, shard), args.scale, args.seed
        )
        print(
            f"interrupted with {len(outputs)} experiment(s) checkpointed",
            file=sys.stderr,
        )
    else:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(render_report(outputs, timings=False) + "\n")
    if not args.no_manifest:
        resumed = [
            name for name, output in outputs.items()
            if output.data.get("resumed")
        ]
        manifest = build_run_manifest(
            outputs,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            only=only,
            command=command,
            status=status,
            shard=shard,
            resumed=resumed,
            checkpoint_dir=checkpoints.root,
            task_timeout=task_timeout,
        )
        path = write_manifest(manifest, manifest_dir)
        print(f"run manifest -> {path}", file=sys.stderr)
    if status == "interrupted":
        return EXIT_INTERRUPTED, None
    return 0, outputs


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.experiments.run_all`` argument parser."""
    parser = argparse.ArgumentParser(description="Run all paper experiments")
    add_run_arguments(parser)
    parser.add_argument(
        "--log-level",
        default=None,
        help="log level for stderr diagnostics (default: $REPRO_LOG_LEVEL "
        "or WARNING)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit JSON-lines logs instead of the human format",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run experiments and print/save the report."""
    args = build_parser().parse_args(argv)
    configure_logging(
        level=args.log_level, json_lines=args.log_json or None
    )
    if not args.no_cache:
        set_default_cache(FeatureCache(args.cache_dir or default_cache_dir()))
    code, outputs = execute(args, command="run_all")
    if outputs is not None:
        print(render_report(outputs, timings=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
