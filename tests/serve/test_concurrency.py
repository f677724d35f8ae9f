"""Concurrent-serving correctness: cache races, versions, byte-identity.

The serving layer's contract under ``ThreadingHTTPServer`` is that any
number of handler threads may score simultaneously and each response is
byte-identical to what a serial call would have produced.  These tests
hammer the model LRU from many threads (the model-cache race
regression), check that a newly saved version is served by name, and
byte-compare concurrent HTTP responses against the serial path.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.attack.config import CONFIGS_BY_NAME
from repro.serve import service as service_module
from repro.serve.http import make_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import AttackService, train_model
from repro.splitmfg.challenge import challenge_to_dict

CONFIG = CONFIGS_BY_NAME["Imp-7"]


@pytest.fixture(scope="module")
def artifact(views6):
    return train_model(CONFIG, views6[:1], seed=0)


@pytest.fixture(scope="module")
def registry(artifact, tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.save(artifact, name="m")
    return registry


def canonical(body: bytes) -> bytes:
    """A response body minus its wall-clock field, canonically encoded.

    ``time_s`` is the only nondeterministic field in a prediction
    document; everything else must be byte-stable across serial,
    and concurrent serving.
    """
    document = json.loads(body)
    assert "time_s" in document
    document.pop("time_s")
    return json.dumps(document, sort_keys=True).encode()


def post_predict(server, payload) -> tuple[int, bytes]:
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/predict",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:  # pragma: no cover - debug aid
        return error.code, error.read()


class TestCacheRace:
    """The model LRU must hold its bound and never corrupt under load."""

    N_THREADS = 12
    N_ITERATIONS = 30

    def test_hammering_load_with_cache_size_1(
        self, artifact, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(service_module, "MODEL_CACHE_SIZE", 1)
        registry = ModelRegistry(tmp_path)
        for _ in range(3):
            registry.save(artifact, name="m")
        service = AttackService(registry)
        model_ids = ["m-v0001", "m-v0002", "m-v0003"]
        errors: list[BaseException] = []
        bound_violations: list[int] = []
        start = threading.Barrier(self.N_THREADS)

        def hammer(index: int) -> None:
            try:
                start.wait()
                for step in range(self.N_ITERATIONS):
                    wanted = model_ids[(index + step) % len(model_ids)]
                    loaded = service._load(wanted)
                    assert loaded.entry.model_id == wanted
                    # Under the cache lock the LRU bound is invariant.
                    with service._cache_lock:
                        if len(service._cache) > 1:
                            bound_violations.append(len(service._cache))
            except BaseException as error:  # noqa: BLE001 - collect, don't die
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors[:3]
        assert not bound_violations, bound_violations[:5]
        assert len(service._cache) == 1

    def test_concurrent_loads_share_one_object(self, registry):
        """Racing cold loads converge on a single cached model."""
        service = AttackService(registry)
        results: list[object] = []
        start = threading.Barrier(8)

        def load() -> None:
            start.wait()
            results.append(service._load("m-v0001"))

        threads = [threading.Thread(target=load) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 8
        cached = service._cache["m-v0001"]
        # All requests finished on a valid model; later requests reuse
        # the cached object.
        assert service._load("m-v0001") is cached


class TestVersions:
    def test_new_version_is_served_by_name(self, artifact, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save(artifact, name="m")
        service = AttackService(registry)
        first = service._load("m")
        registry.save(artifact, name="m")  # m-v0002; name now resolves to it
        second = service._load("m")
        assert first.entry.model_id == "m-v0001"
        assert second.entry.model_id == "m-v0002"
        assert second is not first
        # The old version stays cached and servable by its exact id.
        assert service._load("m-v0001") is first


class ServerHarness:
    """An in-process server over the shared registry."""

    def __init__(self, registry) -> None:
        self.service = AttackService(registry)
        self.server = make_server(self.service, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


@pytest.fixture(scope="module")
def challenges(views6):
    return [challenge_to_dict(view) for view in views6]


@pytest.fixture(scope="module")
def serial_bodies(registry, challenges):
    """Reference bodies: one server, strictly one request at a time."""
    harness = ServerHarness(registry)
    try:
        bodies = []
        for challenge in challenges:
            status, body = post_predict(harness.server, {"challenge": challenge})
            assert status == 200
            bodies.append(canonical(body))
        return bodies
    finally:
        harness.close()


def test_concurrent_responses_match_serial_path(registry, challenges, serial_bodies):
    """N concurrent clients each get the exact serial-path response."""
    n_clients = 9  # 3 waves over the 3 distinct challenges
    harness = ServerHarness(registry)
    failures: list[str] = []
    start = threading.Barrier(n_clients)

    def client(index: int) -> None:
        which = index % len(challenges)
        start.wait()
        status, body = post_predict(
            harness.server, {"challenge": challenges[which]}
        )
        if status != 200:
            failures.append(f"client {index}: status {status}")
        elif canonical(body) != serial_bodies[which]:
            failures.append(f"client {index}: body differs from serial path")

    try:
        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        harness.close()
    assert not failures, failures
