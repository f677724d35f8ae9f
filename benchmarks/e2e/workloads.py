"""The four workloads, measured from outside the program.

Each workload runs the program in child processes with a hermetic
environment (no ``REPRO_*`` knobs, scratch directories inside the
checkout), records when each operation and set-up started and ended,
reads ``wait4`` rusage, checks every output and returns a
:class:`Measurement`.  With ``traced=True`` the program's processes run
under :mod:`benchmarks.e2e.tracer` and the measurement carries the
tracer records plus the program's own metrics snapshot.

* ``reproduce`` / ``reproduce-jobs2`` -- ``run_all`` over all 20
  experiments at :data:`REPRODUCE_SCALE` with a fresh feature cache,
  ``--jobs 1`` (pinned to one CPU) and ``--jobs 2``; one operation is
  one whole run.
* ``score-paper`` -- sharded top-K scoring of every legal pair of a
  synthetic 1M-cell layer-8 view; one operation is one scoring pass.
* ``serve-predict`` -- a closed loop of ``POST /predict`` requests from
  :data:`CLIENTS` client threads against ``repro serve``; one operation
  is one request, timed at the client from send to last byte.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e.layers import EXPERIMENTS, TIMED_REPORTS
from benchmarks.e2e.probe import Probes
from benchmarks.e2e.programs import SETUPS, more_passes
from benchmarks.e2e.stats import tail

#: Suite scale of the reproduce workloads: one serial run of all 20
#: experiments takes about 20 s, and smaller scales take no less.
REPRODUCE_SCALE = 0.03
#: Concurrent closed-loop clients of serve-predict (the 2-core host).
CLIENTS = 2
#: Upper bound on any one child process.
CHILD_TIMEOUT_S = 170.0
#: Operations at least this long are scaled by their own speed factor;
#: shorter ones by their window's.
OWN_FACTOR_S = 1.0

PINS_PATH = Path(__file__).with_name("pins.json")

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

Interval = tuple[float, float]


@dataclass
class Context:
    """Where and how one workload runs."""

    root: Path
    work: Path
    seed: int
    seconds: float
    env: dict[str, str]
    cpus: list[int]

    @classmethod
    def create(cls, root: Path, seed: int, seconds: float) -> "Context":
        work = root / ".e2e_work" / f"{os.getpid()}-{time.time_ns()}"
        (work / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["TMPDIR"] = str(work / "tmp")
        return cls(root, work, seed, seconds, env, sorted(os.sched_getaffinity(0)))

    def fresh_dir(self, prefix: str) -> Path:
        path = self.work / f"{prefix}-{time.time_ns()}"
        path.mkdir()
        return path

    def close(self) -> None:
        """Delete the scratch directory (and its parent once empty)."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another measurement is still using it

    def python(self, *args: str, traced_into: Path | None = None, entry: str = "") -> list[str]:
        """``python ARGS``, or ``entry(ARGS)`` under the tracer."""
        if traced_into is None:
            return [sys.executable, *args]
        return [
            sys.executable, "-u", "-m", "benchmarks.e2e.tracer",
            "--out", str(traced_into), entry, "--", *args,
        ]

    def spawn(self, cmd: list[str], cpus: list[int] | None = None, **popen: Any) -> subprocess.Popen:
        """Start ``cmd`` in the checkout, pinned to ``cpus`` when given."""
        previous = os.sched_getaffinity(0)
        if cpus:
            os.sched_setaffinity(0, cpus)  # inherited by the child
        try:
            return subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, **popen
            )
        finally:
            if cpus:
                os.sched_setaffinity(0, previous)


@dataclass
class Child:
    returncode: int
    interval: Interval
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Measurement:
    """Raw results of one workload run; times are ``perf_counter`` values."""

    ops: list[Interval]
    window: Interval
    work_units: float
    cpu_s_per_op: float
    peak_rss_mb: float
    setups: list[list[Interval]]
    attempted: int
    failed: int
    cpus: list[int] | None = None
    detail: dict[str, Any] = field(default_factory=dict)
    trace_dir: Path | None = None
    program: dict[str, Any] = field(default_factory=dict)
    #: Wall time of the (last) program process, start to reap.
    process_wall_s: float = 0.0

    def latency_ms(self, factor: Callable[[float, float], float]) -> list[float]:
        window = factor(*self.window)
        return [
            (end - start) * 1e3 * (factor(start, end) if end - start >= OWN_FACTOR_S else window)
            for start, end in self.ops
        ]

    def end_to_end(self, probes: Probes | None = None) -> dict[str, float]:
        """Every :data:`END_TO_END` metric, durations scaled to reference
        CPU speed by ``probes`` (as measured when ``None``)."""
        def factor(start: float, end: float) -> float:
            return 1.0 if probes is None else probes.factor(start, end, self.cpus)

        latency = self.latency_ms(factor)
        window = factor(*self.window)
        return {
            "latency_p50_ms": statistics.median(latency),
            "latency_tail_ms": tail(latency)[1],
            "throughput_per_s": self.work_units / ((self.window[1] - self.window[0]) * window),
            "cpu_ms_per_op": self.cpu_s_per_op * 1e3 * window,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(
                sum((end - start) * factor(start, end) for start, end in setup)
                for setup in self.setups
            ),
        }


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, Any]:
    """``wait4`` the child (killing it after ``timeout``); rusage included."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(cmd: list[str], ctx: Context, cpus: list[int] | None = None) -> Child:
    """Run ``cmd`` to completion; its interval and process-tree rusage."""
    log = ctx.work / "child.log"
    with open(log, "ab") as stderr:
        started = time.perf_counter()
        proc = ctx.spawn(cmd, cpus, stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            returncode, usage = _reap(proc, CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    ended = time.perf_counter()
    if returncode != 0:
        lines = log.read_text(errors="replace").splitlines()[-20:]
        sys.stderr.write(f"{' '.join(cmd)} exited {returncode}:\n" + "\n".join(lines) + "\n")
    return Child(
        returncode=returncode,
        interval=(started, ended),
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


def load_pins() -> dict[str, Any]:
    return json.loads(PINS_PATH.read_text())


def import_setup(ctx: Context, modules: str, cpus: list[int] | None = None) -> list[Interval]:
    """Interpreter start plus ``import modules``, :data:`SETUPS` times."""
    return [
        run_child(ctx.python("-c", f"import {modules}"), ctx, cpus).interval
        for _ in range(SETUPS)
    ]


# -- reproduce ----------------------------------------------------------------


def check_reports(
    passes: list[dict[str, str] | None], pinned: dict[str, str] | None
) -> tuple[int, int]:
    """``(attempted, failed)`` over every experiment report of every pass.

    A pass that failed (``None``) fails all 20.  Each report must be
    present; timing-free reports must match ``pinned`` when given and
    agree across the passes of this run.
    """
    attempted = failed = 0
    first = next((hashes for hashes in passes if hashes), {})
    for hashes in passes:
        for name in EXPERIMENTS:
            attempted += 1
            sha = (hashes or {}).get(name)
            if sha is None:
                failed += 1
            elif name not in TIMED_REPORTS and (
                sha != first.get(name) or (pinned and sha != pinned.get(name))
            ):
                failed += 1
    return attempted, failed


def _report_hashes(manifest_dir: Path) -> tuple[dict[str, str] | None, dict[str, Any]]:
    manifests = list(manifest_dir.glob("*.json"))
    if len(manifests) != 1:
        return None, {}
    manifest = json.loads(manifests[0].read_text())
    if manifest.get("status") != "completed":
        return None, {}
    hashes = {
        name: entry["report_sha256"]
        for name, entry in manifest.get("experiments", {}).items()
    }
    return hashes, manifest.get("metrics", {})


def reproduce(ctx: Context, jobs: int, traced: bool = False) -> Measurement:
    """Whole ``run_all`` runs, each with a fresh cache, for ``ctx.seconds``."""
    cpus = ctx.cpus[:1] if jobs == 1 else None
    setups = [[interval] for interval in import_setup(ctx, "repro.experiments.run_all", cpus)]
    children: list[Child] = []
    reports: list[dict[str, str] | None] = []
    trace_dir = ctx.work / "trace" if traced else None
    program: dict[str, Any] = {}
    window_start = time.perf_counter()
    while more_passes(len(children), window_start, ctx.seconds):
        scratch = ctx.fresh_dir("reproduce")
        args = [
            "--scale", str(REPRODUCE_SCALE), "--seed", str(ctx.seed),
            "--jobs", str(jobs), "--cache-dir", str(scratch / "cache"),
            "--manifest-dir", str(scratch / "runs"),
            "--checkpoint-dir", str(scratch / "checkpoints"),
            "--out", str(scratch / "report.txt"),
        ]
        if traced:
            cmd = ctx.python(*args, traced_into=trace_dir, entry="repro.experiments.run_all:main")
        else:
            cmd = ctx.python("-m", "repro.experiments.run_all", *args)
        child = run_child(cmd, ctx, cpus)
        hashes, program = _report_hashes(scratch / "runs")
        reports.append(hashes if child.returncode == 0 else None)
        children.append(child)
        shutil.rmtree(scratch)
        if traced:
            break  # one traced run: its records must not mix with another's
    pins = load_pins()["reproduce"]
    pinned = pins["reports"].get(str(ctx.seed)) if pins["scale"] == REPRODUCE_SCALE else None
    attempted, failed = check_reports(reports, pinned)
    return Measurement(
        ops=[child.interval for child in children],
        window=(window_start, children[-1].interval[1]),
        work_units=len(EXPERIMENTS) * len(children),
        cpu_s_per_op=statistics.median(child.cpu_s for child in children),
        peak_rss_mb=max(child.peak_rss_mb for child in children),
        setups=setups,
        attempted=attempted,
        failed=failed,
        cpus=cpus,
        detail={"reports": reports, "pinned": pinned is not None},
        trace_dir=trace_dir,
        program=program,
        process_wall_s=children[-1].interval[1] - children[-1].interval[0],
    )


# -- score-paper --------------------------------------------------------------


def check_digests(digests: list[str], pinned: str | None) -> tuple[int, int]:
    """Every pass must equal the first pass and, when given, the pin."""
    failed = sum(
        1 for digest in digests
        if digest != digests[0] or (pinned is not None and digest != pinned)
    )
    return len(digests), failed


def score_paper(ctx: Context, traced: bool = False) -> Measurement:
    """Score passes over the 1M-cell view for ``ctx.seconds``."""
    # Set-up is start-up (interpreter and imports) plus views and training.
    startup = import_setup(ctx, "repro.attack.scale, repro.synth.paper_scale")
    out = ctx.work / "score.json"
    args = ["--seed", str(ctx.seed), "--seconds", str(ctx.seconds), "--out", str(out)]
    trace_dir = ctx.work / "trace" if traced else None
    if traced:
        cmd = ctx.python(*args, traced_into=trace_dir, entry="benchmarks.e2e.programs:score")
    else:
        cmd = ctx.python("-m", "benchmarks.e2e.programs", "score", *args)
    child = run_child(cmd, ctx)
    if child.returncode != 0:
        raise RuntimeError("score-paper program failed")
    document = json.loads(out.read_text())
    passes = document["passes"]
    pinned = load_pins()["score-paper"].get(str(ctx.seed))
    attempted, failed = check_digests([p["digest"] for p in passes], pinned)
    return Measurement(
        ops=[(p["start"], p["end"]) for p in passes],
        window=tuple(document["window"]),
        work_units=sum(p["pairs"] for p in passes),
        cpu_s_per_op=statistics.median(p["cpu_s"] for p in passes),
        peak_rss_mb=child.peak_rss_mb,
        setups=[[a, tuple(b)] for a, b in zip(startup, document["setups"])],
        attempted=attempted,
        failed=failed,
        detail={"digests": [p["digest"] for p in passes], "pinned": pinned is not None},
        trace_dir=trace_dir,
        program=document["program"],
        process_wall_s=child.interval[1] - child.interval[0],
    )


# -- serve-predict ------------------------------------------------------------

_TIME_FIELD = re.compile(rb'"time_s": *[-+0-9.eE]+')


def response_key(body: bytes) -> str:
    """Digest of a response body with its ``time_s`` value removed."""
    return hashlib.sha256(_TIME_FIELD.sub(b"", body)).hexdigest()


def check_responses(
    records: list[tuple[int, int, Interval, str]],
    bodies: dict[str, bytes],
    references: list[dict[str, Any]],
) -> tuple[int, int]:
    """``(attempted, failed)``: each ``(challenge, status, interval, key)``
    must be a 200 whose body equals its challenge's reference,
    ignoring ``time_s``."""
    verdicts: dict[tuple[int, str], bool] = {}
    failed = 0
    for challenge, status, _interval, key in records:
        if (challenge, key) not in verdicts:
            try:
                document = json.loads(bodies[key])
                document.pop("time_s")
                verdicts[challenge, key] = document == references[challenge]
            except (KeyError, ValueError, AttributeError):
                verdicts[challenge, key] = False
        if status != 200 or not verdicts[challenge, key]:
            failed += 1
    return len(records), failed


def _post(port: int, body: bytes) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    except OSError:
        return 0, b""
    finally:
        connection.close()


def _cpu_ticks(pid: int) -> float:
    """User+system CPU seconds of ``pid`` so far (``/proc/<pid>/stat``)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, ctx: Context, registry: Path, trace_dir: Path | None) -> None:
        args = ["serve", "--registry", str(registry), "--host", "127.0.0.1", "--port", "0", "--quiet"]
        if trace_dir is None:
            cmd = ctx.python("-u", "-m", "repro", *args)
        else:
            cmd = ctx.python(*args, traced_into=trace_dir, entry="repro.cli:main")
        self._log = open(ctx.work / "server.log", "ab")
        self._started = time.perf_counter()
        self.proc = ctx.spawn(cmd, stdout=subprocess.PIPE, stderr=self._log)
        self.peak_rss_mb = self.wall_s = 0.0
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            match = re.search(rb"on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server exited before announcing its port")

    def metrics(self) -> dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGINT (so a traced server flushes), then reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            _, usage = _reap(self.proc, 30.0)
            self.wall_s = time.perf_counter() - self._started
            self.peak_rss_mb = usage.ru_maxrss / 1024
        self.proc.stdout.close()
        self._log.close()


def closed_loop(
    port: int, bodies: list[bytes], orders: list[list[int]], seconds: float
) -> tuple[list[tuple[int, int, Interval, str]], dict[str, bytes], Interval]:
    """One client thread per order, each sending its next request only
    after the last reply, until ``seconds`` have passed.

    Returns ``(challenge, status, interval, key)`` records, one body per
    distinct key, and the window from the common start to the last reply.
    """
    window: dict[str, float] = {}
    barrier = threading.Barrier(len(orders), action=lambda: window.update(start=time.perf_counter()))
    records: list[list[tuple[int, int, Interval, str]]] = [[] for _ in orders]
    seen: dict[str, bytes] = {}

    def client(index: int) -> None:
        order = orders[index]
        barrier.wait()
        deadline = window["start"] + seconds
        sent = 0
        while time.perf_counter() < deadline:
            challenge = order[sent % len(order)]
            started = time.perf_counter()
            status, body = _post(port, bodies[challenge])
            ended = time.perf_counter()
            key = response_key(body)
            seen.setdefault(key, body)
            records[index].append((challenge, status, (started, ended), key))
            sent += 1

    threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(len(orders))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = [record for per_client in records for record in per_client]
    return merged, seen, (window["start"], max(record[2][1] for record in merged))


def serve_predict(ctx: Context, traced: bool = False) -> Measurement:
    """Closed-loop ``/predict`` traffic against a warmed server."""
    registry, challenges_path = ctx.work / "registry", ctx.work / "challenges.json"
    if not challenges_path.exists():
        prep = ctx.python(
            "-m", "benchmarks.e2e.programs", "serve-prep", "--seed", str(ctx.seed),
            "--registry", str(registry), "--out", str(challenges_path),
        )
        if run_child(prep, ctx).returncode != 0:
            raise RuntimeError("serve-predict preparation failed")
    challenges = json.loads(challenges_path.read_text())
    bodies = [json.dumps(c["request"]).encode() for c in challenges]
    references = [c["reference"] for c in challenges]
    trace_dir = ctx.work / "trace" if traced else None
    setups: list[list[Interval]] = []
    warm: list[tuple[int, int, Interval, str]] = []
    warm_bodies: dict[str, bytes] = {}
    server = None
    try:
        # Set-up: start the server and answer each challenge once.
        for attempt in range(SETUPS):
            started = time.perf_counter()
            server = Server(ctx, registry, trace_dir if attempt == SETUPS - 1 else None)
            for index, body in enumerate(bodies):
                status, reply = _post(server.port, body)
                warm_bodies.setdefault(response_key(reply), reply)
                warm.append((index, status, (0.0, 0.0), response_key(reply)))
            setups.append([(started, time.perf_counter())])
            if attempt < SETUPS - 1:
                server.stop()
        rng = random.Random(ctx.seed)
        orders = [rng.sample(range(len(bodies)), len(bodies)) for _ in range(CLIENTS)]
        cpu = _cpu_ticks(server.proc.pid)
        records, seen, window = closed_loop(server.port, bodies, orders, ctx.seconds)
        cpu = _cpu_ticks(server.proc.pid) - cpu
        program = server.metrics()
    finally:
        if server is not None:
            server.stop()
    attempted, failed = check_responses(warm + records, {**warm_bodies, **seen}, references)
    return Measurement(
        ops=[record[2] for record in records],
        window=window,
        work_units=len(records),
        cpu_s_per_op=cpu / len(records),
        peak_rss_mb=server.peak_rss_mb,
        setups=setups,
        attempted=attempted,
        failed=failed,
        detail={"requests": len(records), "server_cpu_s": cpu},
        trace_dir=trace_dir,
        program=program,
        process_wall_s=server.wall_s,
    )


WORKLOADS: dict[str, Callable[..., Measurement]] = {
    "reproduce": functools.partial(reproduce, jobs=1),
    "reproduce-jobs2": functools.partial(reproduce, jobs=2),
    "score-paper": score_paper,
    "serve-predict": serve_predict,
}
