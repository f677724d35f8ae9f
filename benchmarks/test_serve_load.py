"""Load benchmark for the serving layer: one real ``repro serve``.

Spawns a ``repro serve`` subprocess, whose handler threads score each
request inline, and drives it with a pool of concurrent HTTP clients.
Gates:

* every concurrent response is byte-identical (modulo ``time_s``) to
  the serial reference taken off the same server;
* zero 5xx responses, read back from the server's ``/metrics``;
* p99 ``/predict`` latency (from the ``http_request_seconds`` histogram
  in ``/metrics``) stays under ``REPRO_SERVE_LOAD_P99_LIMIT`` seconds.

The server runs with ``CC=false``, so no C kernel compiles and it
scores through the NumPy engines, the slowest per-request path.  Scale
knobs: ``REPRO_SERVE_LOAD_CLIENTS`` (default 8) and
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

#: A deliberately heavy ensemble so each /predict pays real scoring
#: time at benchmark scale.
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

    def __init__(self, registry_root: Path) -> None:
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


def test_serve_load(served_registry, challenges, benchmark):
    with ServerProc(served_registry) as server:
        # Warm the server (model load + feature extraction) and build
        # the serial reference bodies, one request at a time.
        serial_bodies = []
        for challenge in challenges:
            status, body = post_predict(server, challenge)
            assert status == 200
            serial_bodies.append(canonical(body))

        stats = {}

        def measured() -> None:
            stats.update(run_load(server, challenges))

        benchmark.pedantic(measured, rounds=1, iterations=1)

        # Every concurrent response must match the serial path byte for
        # byte.
        for which, status, body in stats["results"]:
            assert status == 200, f"request got {status}"
            assert canonical(body) == serial_bodies[which], (
                f"response for challenge {which} differs from the serial path"
            )

        metrics = server.metrics()

    assert count_5xx(metrics) == 0
    assert p99_from_metrics(metrics) <= P99_LIMIT

    benchmark.extra_info["cores"] = os.cpu_count() or 1
    benchmark.extra_info["clients"] = N_CLIENTS
    benchmark.extra_info["requests"] = N_REQUESTS
    benchmark.extra_info["rps"] = round(stats["throughput_rps"], 3)
    benchmark.extra_info["p99_bucket_s"] = p99_from_metrics(metrics)
