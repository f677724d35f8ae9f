"""Load benchmark for the serving layer: batched vs unbatched throughput.

Spawns two real ``repro serve`` subprocesses over the same registry --
one with micro-batching disabled (``--batch-window 0``) and one with a
coalescing window -- then drives both with a pool of concurrent HTTP
clients.  Gates:

* every concurrent response is byte-identical (modulo ``time_s``) to
  the serial, unbatched reference;
* zero 5xx responses, read back from each server's ``/metrics``;
* p99 ``/predict`` latency (from the ``http_request_seconds`` histogram
  in ``/metrics``) stays under ``REPRO_SERVE_LOAD_P99_LIMIT`` seconds;
* the batched server shows its ``serving_*`` metrics;
* on machines with >= 4 cores, batched throughput >= 2x unbatched.

Both servers run with ``CC=false``, so no C kernel compiles and they
score through the NumPy engines: the NumPy traversal pays a large
per-invocation Python cost, which is exactly what coalescing amortises
(the C kernel already releases the GIL, so the contrast there is
hardware-dependent).  Scale knobs:
``REPRO_SERVE_LOAD_CLIENTS`` (default 8) and
``REPRO_SERVE_LOAD_REQUESTS`` (default 8 per client).
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.attack.config import CONFIGS_BY_NAME
from repro.obs.metrics import quantile_from_buckets
from repro.serve.registry import ModelRegistry
from repro.serve.service import train_model
from repro.splitmfg.challenge import challenge_to_dict

REPO_ROOT = Path(__file__).resolve().parent.parent

N_CLIENTS = int(os.environ.get("REPRO_SERVE_LOAD_CLIENTS", "8"))
N_REQUESTS = N_CLIENTS * int(os.environ.get("REPRO_SERVE_LOAD_REQUESTS", "8"))
P99_LIMIT = float(os.environ.get("REPRO_SERVE_LOAD_P99_LIMIT", "10.0"))

#: A deliberately heavy ensemble so each /predict pays enough kernel
#: time for coalescing to matter at benchmark scale.
CONFIG = dataclasses.replace(CONFIGS_BY_NAME["Imp-7"], n_estimators=40)


@pytest.fixture(scope="module")
def served_registry(views6, tmp_path_factory):
    root = tmp_path_factory.mktemp("load-registry")
    registry = ModelRegistry(root)
    registry.save(train_model(CONFIG, views6[:1], seed=0), name="load")
    return root


@pytest.fixture(scope="module")
def challenges(views6):
    return [challenge_to_dict(view) for view in views6]


class ServerProc:
    """One ``repro serve`` subprocess; parses its port from stdout."""

    def __init__(self, registry_root: Path, batch_window: float) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro",
                "serve",
                "--registry",
                str(registry_root),
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--workers",
                str(N_CLIENTS),
                "--batch-window",
                str(batch_window),
                "--quiet",
            ],
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "CC": "false",
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 120
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited early (rc={self.proc.poll()})"
                )
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise TimeoutError("server never announced its port")

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url("/metrics"), timeout=30) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hard stop
            self.proc.kill()
            self.proc.wait(timeout=30)

    def __enter__(self) -> "ServerProc":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def canonical(body: bytes) -> bytes:
    document = json.loads(body)
    assert "time_s" in document
    document.pop("time_s")
    return json.dumps(document, sort_keys=True).encode()


def post_predict(server: ServerProc, challenge: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        server.url("/predict"),
        data=json.dumps({"challenge": challenge}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=300) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def run_load(server: ServerProc, challenges: list[dict]) -> dict:
    """Fire N_REQUESTS through N_CLIENTS threads; return stats + bodies."""

    def one(index: int) -> tuple[int, int, bytes]:
        which = index % len(challenges)
        status, body = post_predict(server, challenges[which])
        return which, status, body

    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        started = time.perf_counter()
        results = list(pool.map(one, range(N_REQUESTS)))
        wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "throughput_rps": N_REQUESTS / wall,
        "results": results,
    }


def p99_from_metrics(snapshot: dict, route: str = "/predict") -> float:
    """The p99 upper-bound bucket of ``http_request_seconds{route}``."""
    return quantile_from_buckets(
        snapshot, f"http_request_seconds{{route={route}}}", 0.99
    )


def count_5xx(snapshot: dict) -> int:
    return sum(
        value
        for name, value in snapshot["counters"].items()
        if name.startswith("http_requests{") and "status=5" in name
    )


def test_serve_load_batched_vs_unbatched(served_registry, challenges, benchmark):
    cores = os.cpu_count() or 1
    with ServerProc(served_registry, batch_window=0.0) as unbatched, \
            ServerProc(served_registry, batch_window=0.005) as batched:
        # Warm both servers (model load + feature extraction) and build
        # the serial reference bodies off the unbatched server.
        serial_bodies = []
        for challenge in challenges:
            status, body = post_predict(unbatched, challenge)
            assert status == 200
            serial_bodies.append(canonical(body))
        for challenge in challenges:
            status, _ = post_predict(batched, challenge)
            assert status == 200

        plain = run_load(unbatched, challenges)
        stats = {}

        def measured() -> None:
            stats.update(run_load(batched, challenges))

        benchmark.pedantic(measured, rounds=1, iterations=1)

        # Correctness first: every concurrent response -- batched or
        # not -- must match the serial path byte for byte.
        for label, run in (("unbatched", plain), ("batched", stats)):
            for which, status, body in run["results"]:
                assert status == 200, f"{label}: request got {status}"
                assert canonical(body) == serial_bodies[which], (
                    f"{label}: response for challenge {which} differs "
                    "from the serial path"
                )

        plain_metrics = unbatched.metrics()
        batched_metrics = batched.metrics()

    assert count_5xx(plain_metrics) == 0
    assert count_5xx(batched_metrics) == 0

    for snapshot in (plain_metrics, batched_metrics):
        assert p99_from_metrics(snapshot) <= P99_LIMIT

    # The batcher must be visibly in the serving path.
    histograms = batched_metrics["histograms"]
    assert histograms["serving_batch_size"]["count"] >= 1
    assert histograms["serving_batch_size"]["sum"] >= N_REQUESTS
    assert histograms["serving_batch_wait_seconds"]["count"] >= N_REQUESTS
    assert histograms["serving_queue_depth"]["count"] >= 1
    assert "serving_batch_size" not in plain_metrics["histograms"]

    speedup = stats["throughput_rps"] / plain["throughput_rps"]
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["clients"] = N_CLIENTS
    benchmark.extra_info["requests"] = N_REQUESTS
    benchmark.extra_info["unbatched_rps"] = round(plain["throughput_rps"], 3)
    benchmark.extra_info["batched_rps"] = round(stats["throughput_rps"], 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["p99_bucket_s"] = p99_from_metrics(batched_metrics)
    benchmark.extra_info["max_batch"] = histograms["serving_batch_size"]["max"]

    # The throughput gate needs real parallel hardware; measure always,
    # enforce only where the contrast is physically possible.
    if cores >= 4:
        assert speedup >= 2.0, (
            f"batched serving only {speedup:.2f}x faster than unbatched "
            f"({stats['throughput_rps']:.1f} vs "
            f"{plain['throughput_rps']:.1f} rps)"
        )
