"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e run [--seed S] [--workload W]... [--traced] [--out R.json]
    python -m benchmarks.e2e compare --base A1.json ... --head B1.json ...
    python -m benchmarks.e2e measure --workload W --seed S --seconds N --trace 0|1
    python -m benchmarks.e2e pin --seeds 0 1 ...

``run`` measures each workload in a fresh ``measure`` subprocess, prints
every metric with its unit and writes one result file with host facts.
``compare`` judges two sets of result files metric by metric with the
bounds in ``BENCHMARK.json``.  ``measure`` is the single-workload form
``BENCHMARK.json`` invokes; its last stdout line is the result object.
``pin`` records the report hashes and score digests the checks expect.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a file: python3 benchmarks/e2e/__main__.py
    sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))  # the program's own helpers (repro.obs)

from benchmarks.e2e import layers, stats, tracer, workloads  # noqa: E402
from benchmarks.e2e.probe import Probes  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
#: Largest share of a traced process's wall that may fall outside its
#: root span before ``run`` flags the per-layer accounting.
OUTSIDE_ROOT_LIMIT = 0.02


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload: the result object and the raw detail behind it."""
    ctx = workloads.Context.create(ROOT, seed, seconds)
    probes = Probes(ctx.work, ctx.env, ROOT)
    try:
        run = workloads.WORKLOADS[name](ctx)
        traced = workloads.WORKLOADS[name](ctx, traced=True) if trace else None
        probes.stop()
        attempted, failed = run.attempted, run.failed
        latency = run.latency_ms(lambda a, b: probes.factor(a, b, run.cpus))
        detail = {
            "latency_ms": stats.summary(latency),
            "tail": stats.tail(latency)[0],
            "speed": probes.factor(*run.window, run.cpus),
            "as_measured": run.end_to_end(),
            "ops_ms_as_measured": [(end - start) * 1e3 for start, end in run.ops[:100]],
            "op_speed_by_cpu": [
                [probes.factor(start, end, [cpu]) for cpu in probes.cpus]
                for start, end in run.ops[:100]
            ],
            "window_speed_by_cpu": [probes.factor(*run.window, [cpu]) for cpu in probes.cpus],
            "checks": run.detail,
        }
        if traced is not None:
            attempted, failed = attempted + traced.attempted, failed + traced.failed
            merged = layers.merge_records(tracer.load_records(traced.trace_dir))
            traced_latency = traced.latency_ms(lambda a, b: probes.factor(a, b, traced.cpus))
            overhead = statistics.median(traced_latency) / statistics.median(latency) - 1
            values = layers.per_layer_metrics(merged, traced.program, overhead)
            units = {metric: unit for metric, unit, _ in layers.PER_LAYER}
            detail["traced"] = {
                "latency_ms": stats.summary(traced_latency),
                "top_s": merged["top_s"],
                "processes": merged["processes"],
                "root_s": merged["root_s"],
                "process_wall_s": traced.process_wall_s,
                "outside_root_frac": layers.outside_root_frac(merged, traced.process_wall_s),
            }
        else:
            values = run.end_to_end(probes)
            units = {metric: unit for metric, unit, _ in workloads.END_TO_END}
    finally:
        probes.stop()
        ctx.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in values.items()
        },
    }
    return result, detail


def cmd_measure(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src' / 'repro'}; nothing to measure", file=sys.stderr)
        return 2
    # A terminated run still stops its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def host_facts() -> dict:
    """Facts about this host and checkout that bear on the timings."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
    }


def cmd_run(args: argparse.Namespace) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = args.workload or [workload["name"] for workload in bench["workloads"]]
    seconds = bench["run_seconds"]
    document = {"seed": args.seed, "seconds": seconds, "host": host_facts(), "workloads": {}}
    document["host"]["loadavg_before"] = os.getloadavg()
    scratch = workloads.Context.create(ROOT, args.seed, seconds)
    ok = True
    try:
        for name in names:
            entry = document["workloads"][name] = {}
            for trace in (0, 1) if args.traced else (0,):
                detail_path = scratch.work / f"{name}-{trace}.json"
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "measure",
                     "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--detail", str(detail_path)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                if not lines or not detail_path.exists():
                    print(f"{name}: measure exited {proc.returncode} without a result", file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(lines[-1])
                key = "per_layer" if trace else "metrics"
                entry[key] = result["metrics"]
                entry[f"{key}_detail"] = json.loads(detail_path.read_text())
                for field in ("attempted", "failed"):
                    entry[field] = entry.get(field, 0) + result[field]
                entry["correct"] = entry.get("correct", True) and result["correct"]
                ok = ok and proc.returncode == 0 and result["correct"]
                _print_result(name, result, trace)
                if trace:
                    outside = entry["per_layer_detail"]["traced"]["outside_root_frac"]
                    flag = "" if outside <= OUTSIDE_ROOT_LIMIT else f" (over {OUTSIDE_ROOT_LIMIT:.0%})"
                    print(f"  {'outside the root span':34s} {outside:>16.2%} of the process wall{flag}")
    finally:
        scratch.close()
    document["jobs_agree"] = _jobs_agree(document["workloads"])
    if document["jobs_agree"] is False:
        print("reproduce and reproduce-jobs2 reports differ", file=sys.stderr)
        ok = False
    document["host"]["loadavg_after"] = os.getloadavg()
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0 if ok else 1


def _jobs_agree(entries: dict) -> bool | None:
    """Whether both reproduce workloads wrote the same timing-free
    reports (``None`` unless both ran)."""
    try:
        serial, pooled = (
            entries[name]["metrics_detail"]["checks"]["reports"][0]
            for name in ("reproduce", "reproduce-jobs2")
        )
    except (KeyError, IndexError):
        return None
    if serial is None or pooled is None:
        return False
    return all(
        serial.get(name) == pooled.get(name)
        for name in layers.EXPERIMENTS
        if name not in layers.TIMED_REPORTS
    )


def _print_result(name: str, result: dict, trace: int) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print(f"\n{name}{' (traced)' if trace else ''}: {status}, "
          f"{result['failed']} failed of {result['attempted']} checked")
    for metric, value in result["metrics"].items():
        print(f"  {metric:34s} {value['value']:>16.6g} {value['unit']}")


def cmd_compare(args: argparse.Namespace) -> int:
    bench = json.loads(BENCHMARK.read_text())
    base = [json.loads(Path(path).read_text()) for path in args.base]
    head = [json.loads(Path(path).read_text()) for path in args.head]
    lengths = {run["seconds"] for run in base + head}
    if len(lengths) > 1:
        print(f"result files measured with different run lengths: {sorted(lengths)} s",
              file=sys.stderr)
        return 2
    header = (f"{'workload':16s} {'metric':18s} {'base median [q1, q3]':>34s} "
              f"{'head median [q1, q3]':>34s} {'worse by':>9s} {'wins':>6s}  verdict")
    print(header)
    flagged = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        for metric in bench["end_to_end"]:
            def values(runs: list[dict]) -> list[float]:
                return [
                    run["workloads"][name]["metrics"][metric["name"]]["value"]
                    for run in runs
                    if "metrics" in run["workloads"].get(name, {})
                ]
            a, b = values(base), values(head)
            if not a or not b:
                continue
            verdict = stats.compare(a, b, metric["better"], metric["bound"])
            flagged += verdict["verdict"] in ("regression", "unresolved")
            print(f"{name:16s} {metric['name']:18s} {_cell(verdict['base']):>34s} "
                  f"{_cell(verdict['head']):>34s} {verdict['worse_by']:>+9.2%} "
                  f"{verdict['wins']:>3d}/{verdict['pairs']:<2d}  {verdict['verdict']}")
    return 1 if flagged else 0


def _cell(summary: dict) -> str:
    return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}]"


def cmd_pin(args: argparse.Namespace) -> int:
    pins = workloads.load_pins()
    pins["reproduce"]["scale"] = workloads.REPRODUCE_SCALE
    for seed in args.seeds:
        ctx = workloads.Context.create(ROOT, seed, 0)
        try:
            reports = workloads.reproduce(ctx, jobs=1).detail["reports"][0]
            digest = workloads.score_paper(ctx).detail["digests"][0]
        finally:
            ctx.close()
        if reports is None:
            print(f"seed {seed}: reproduce failed", file=sys.stderr)
            return 1
        pins["reproduce"]["reports"][str(seed)] = {
            name: sha for name, sha in reports.items() if name not in layers.TIMED_REPORTS
        }
        pins["score-paper"][str(seed)] = digest
        workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: pinned")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads, print and save every metric")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    run.add_argument("--traced", action="store_true", help="also take per-layer numbers")
    run.add_argument("--out", help="result file (JSON)")
    run.set_defaults(func=cmd_run)
    one = sub.add_parser("measure", help="one workload, result object on the last line")
    one.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--detail", help="also write the raw measurements here")
    one.set_defaults(func=cmd_measure)
    compare = sub.add_parser("compare", help="judge two sets of run result files")
    compare.add_argument("--base", nargs="+", required=True)
    compare.add_argument("--head", nargs="+", required=True)
    compare.set_defaults(func=cmd_compare)
    pin = sub.add_parser("pin", help="record report hashes and score digests")
    pin.add_argument("--seeds", type=int, nargs="+", required=True)
    pin.set_defaults(func=cmd_pin)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
